"""Command-line pipeline: distances, permutation tests, sentence filtering,
and graph export, driven by a flat key=value config file with flag overrides.

Exit codes: 0 success, 2 configuration error, 3 data mismatch, 4 numeric
failure. All randomness flows from the single configured seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .core import (
    LabeledDistanceMatrix,
    load_distance_matrix,
    load_embeddings,
    load_feature_table,
    open_text,
    save_distance_matrix,
    Corpus,
    Document,
    FLOAT_FMT,
)
from .distortion import permutation_stats
from .errors import CliqueDistError, ConfigError, CorpusError, EXIT_CONFIG, EXIT_OK
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
from .wmd import GROUND_METRICS, WmdConfig, wmd_model

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
    mc_samples: int = 10000
    ground_metric: str = "euclidean"
    remove_stopwords: bool = True
    unique_pooling: bool = False
    semantic_types: str | None = None  # comma-separated; None = built-in list
    keyword_filter: str | None = None  # DOC:phrase[;DOC:phrase...]
    histogram_path: str | None = None


_CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}
# What each choice key accepts; values are canonicalized (case, `_` -> `-`)
# and checked by build_config before any input is read.
CHOICES = {
    "model": MODELS,
    "transform": tuple(t.value for t in SimilarityTransform),
    "relatedness_mode": tuple(m.value for m in RelatednessMode),
    "ground_metric": GROUND_METRICS,
}


def _coerce(key: str, raw: str):
    """A key's type is the type of its default: bool, int, otherwise text."""
    default = getattr(PipelineConfig, key)
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"config key {key!r} needs a boolean, got {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} needs an integer, got {raw!r}") from None
    return raw


def parse_config_file(path) -> dict:
    """Flat `key = value` text; blank lines and # comments ignored."""
    if not Path(path).is_file():
        raise ConfigError(f"config file not found: {path}")
    out = {}
    with open_text(path) as fh:
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
    """Defaults <- config file <- command-line flags (flags win).

    A flag's `dest` is its config key. Every choice key is stored in its
    canonical spelling, so later code can build the enum directly.
    """
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    values.update({k: v for k, v in vars(args).items()
                   if k in _CONFIG_KEYS and v is not None})
    for key, allowed in CHOICES.items():
        if values.get(key) is None:
            continue
        value = values[key].strip().lower().replace("_", "-")
        if value not in allowed:
            raise ConfigError(f"config key {key!r} needs one of "
                              f"{', '.join(allowed)}, got {values[key]!r}")
        values[key] = value
    cfg = PipelineConfig(**values)
    if cfg.min_mutual < 1:
        raise ConfigError(f"min_mutual must be >= 1, got {cfg.min_mutual}")
    if cfg.mc_samples < 1:
        raise ConfigError(f"mc_samples must be >= 1, got {cfg.mc_samples}")
    return cfg


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


def _parse_keyword_filter(rules_text: str) -> dict[str, str]:
    rules = {}
    for entry in rules_text.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        doc_id, sep, phrase = entry.partition(":")
        if not sep or not doc_id.strip() or not phrase.strip():
            raise ConfigError(
                f"keyword_filter entry {entry!r} must look like DOC:phrase")
        doc_id = doc_id.strip()
        if doc_id in rules:
            raise ConfigError(f"keyword_filter names document {doc_id!r} twice")
        rules[doc_id] = phrase.strip()
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


def _related_splits(cfg: PipelineConfig, corpus: Corpus,
                    semfilter: SemanticTypeFilter) -> list:
    """(document, related, unrelated) per document, split against the
    summary statements by the configured relatedness mode."""
    _require_path(cfg.annotations_path, "annotations_path")
    statements = load_summary_statements(
        _require_path(cfg.summary_path, "summary_path"), semfilter)
    relatedness = RelatednessConfig(RelatednessMode(cfg.relatedness_mode), cfg.min_mutual)
    return [(doc, *split_related(doc, statements, relatedness))
            for doc in corpus.documents]


def _load_pipeline_corpus(cfg: PipelineConfig) -> Corpus:
    """Corpus with lexicon merging, annotations, keyword filtering, and the
    optional related-sentences restriction applied."""
    semfilter = _parse_semfilter(cfg)
    corpus = _load_annotated_corpus(cfg, semfilter)

    if cfg.keyword_filter:
        rules = _parse_keyword_filter(cfg.keyword_filter)
        unknown = set(rules) - set(corpus.ids)
        if unknown:
            raise CorpusError(f"keyword_filter names unknown documents: {sorted(unknown)}")
        corpus = Corpus(tuple(
            filter_sentences_by_keyword(d, rules[d.id]) if d.id in rules else d
            for d in corpus.documents))

    if cfg.relatedness_mode is not None:
        docs = []
        for doc, related, _ in _related_splits(cfg, corpus, semfilter):
            if not related:
                raise CorpusError(
                    f"document {doc.id!r} has no sentences related to the summary")
            docs.append(Document(doc.id, related))
        corpus = Corpus(tuple(docs))
    return corpus


def _build_model_matrix(cfg: PipelineConfig) -> LabeledDistanceMatrix:
    if cfg.model == "feature-table":
        path = _require_path(cfg.feature_table_path, "feature_table_path")
        return feature_difference_counts(load_feature_table(path))
    corpus = _load_pipeline_corpus(cfg)
    store = load_embeddings(_require_path(cfg.embeddings_path, "embeddings_path"))
    if cfg.model == "cosine":
        fn = cosine_model(store, SimilarityTransform(cfg.transform), cfg.unique_pooling)
    else:
        fn = wmd_model(store, WmdConfig(remove_stopwords=cfg.remove_stopwords,
                                        ground_metric=cfg.ground_metric))
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
        reference, comparison, samples=cfg.mc_samples, seed=cfg.seed,
        keep_distortions=cfg.histogram_path is not None)
    out = Path(cfg.output_dir) / "report.json"
    _write_text(out, report.to_json())
    if cfg.histogram_path is not None:
        lines = ["index,distortion"]
        lines += [f"{i},{FLOAT_FMT % v}" for i, v in enumerate(report.distortions)]
        _write_text(Path(cfg.histogram_path), "\n".join(lines) + "\n")
    return out


def cmd_filter(cfg: PipelineConfig) -> Path:
    if cfg.relatedness_mode is None:
        raise ConfigError("filter requires relatedness_mode (--mode)")
    semfilter = _parse_semfilter(cfg)
    corpus = _load_annotated_corpus(cfg, semfilter)

    out_dir = Path(cfg.output_dir)
    manifest = {}
    for doc, related, unrelated in _related_splits(cfg, corpus, semfilter):
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
        "min_mutual": cfg.min_mutual,
        "mode": cfg.relatedness_mode,
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
    out = Path(out_path)
    if fmt == "dot":
        ids = {lab: '"' + lab.replace('"', '\\"') + '"' for lab in labels}
        lines = ["graph distances {"]
        lines += [f"  {ids[lab]};" for lab in labels]
        lines += [f'  {ids[a]} -- {ids[b]} [label="{w:.4f}"];' for a, b, w in edges]
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
    common.add_argument("--model", choices=CHOICES["model"])
    common.add_argument("--transform", choices=CHOICES["transform"])
    common.add_argument("--mode", dest="relatedness_mode",
                        choices=CHOICES["relatedness_mode"],
                        help="relatedness mode for sentence filtering")
    common.add_argument("--min-mutual", dest="min_mutual", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--samples", dest="mc_samples", metavar="SAMPLES", type=int,
                        help="relabelings sampled for a histogram above 9 labels")
    common.add_argument("--out", dest="output_dir", metavar="OUT",
                        help="output directory (or file for export-graph)")

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
    pt.add_argument("--histogram", dest="histogram_path", metavar="HISTOGRAM",
                    help="also write per-permutation distortions CSV")
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
            out = Path(cfg.output_dir)
            # Path() drops a trailing separator, so test for it on the text.
            if (args.output_dir is None or out.is_dir()
                    or cfg.output_dir.endswith(("/", os.sep))):
                out = out / f"graph.{args.format}"
            written = [cmd_export_graph(args.matrix, args.format, out)]
        else:
            written = cmd_pipeline(cfg)
    except CliqueDistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(type(exc), "exit_code", 1)
    except OSError as exc:  # a path to read or write is missing or of the wrong kind
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
