"""Per-layer metrics from the span files of traced CLI invocations.

Times are seconds per workload sequence (all of its invocations together);
counts are per sequence too. A span's self time is its duration minus the
part of it that its child spans cover; children on pool threads overlap, so
the covered part is the union of their intervals.
"""
from __future__ import annotations

import json
from collections import defaultdict

import numpy as np

from traced import PAIR_SPAN, SPAN_NAMES

# name -> (unit, better) for every metric per_sequence() returns.
UNITS = {}
for _name in SPAN_NAMES:
    UNITS[f"{_name}_s"] = ("s", "lower")
    UNITS[f"{_name}.calls"] = ("count", "lower")
for _prefix in ("wmd.solve_ot", "metrics.pair"):
    UNITS[f"{_prefix}_ms_p50"] = ("ms", "lower")
    UNITS[f"{_prefix}_ms_tail"] = ("ms", "lower")
    UNITS[f"{_prefix}_tail_pct"] = ("%", "higher")
    UNITS[f"{_prefix}.samples"] = ("count", "higher")
UNITS.update({
    "wmd.solve_ot.cells": ("count", "lower"),
    "metrics.pairs": ("count", "lower"),
    "metrics.pairwise_parallelism": ("ratio", "higher"),
    "core.embedding_words": ("count", "lower"),
    "textprep.tokens": ("count", "lower"),
    "textprep.annotation_lines": ("count", "lower"),
    "textprep.sentences_kept": ("count", "lower"),
    "textprep.sentences_dropped": ("count", "lower"),
    "distortion.relabelings": ("count", "lower"),
    "distortion.relabelings_per_s": ("1/s", "higher"),
    "cli.import_s": ("s", "lower"),
    "cli.permtest_self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.errors": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.missing": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
})

# attribute recorded on a span -> metric summing it
ATTRIBUTES = {
    ("wmd.solve_ot", "cells"): "wmd.solve_ot.cells",
    ("metrics.pairwise_distances", "pairs"): "metrics.pairs",
    ("core.load_embeddings", "words"): "core.embedding_words",
    ("textprep.load_corpus", "tokens"): "textprep.tokens",
    ("textprep.load_concept_annotations", "lines"): "textprep.annotation_lines",
    ("textprep.split_related", "kept"): "textprep.sentences_kept",
    ("textprep.split_related", "dropped"): "textprep.sentences_dropped",
    ("distortion.permutation_stats", "relabelings"): "distortion.relabelings",
}


def self_times(spans) -> list[float]:
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[index])
        covered, cur_start, cur_end = 0.0, None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


def per_sequence(span_files):
    """(metrics, self time by span name, durations in ms by span name) for
    one traced run of a workload sequence."""
    values = defaultdict(float)
    for name in SPAN_NAMES:
        values[f"{name}_s"] = 0.0
        values[f"{name}.calls"] = 0
    for metric in ATTRIBUTES.values():
        values[metric] = 0
    self_by_name = defaultdict(float)
    durations = defaultdict(list)
    errors = missing = span_count = 0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        values["cli.import_s"] += payload["import_s"]
        errors += sum(payload["errors"].values())
        missing = max(missing, len(payload["missing"]))
        for name, calls in payload["calls"].items():
            values[f"{name}.calls"] += calls
        spans = payload["spans"]
        span_count += len(spans)
        for span, own in zip(spans, self_times(spans)):
            name, start, end, parent, _thread, _raised, attrs = span
            self_by_name[name] += own
            durations[name].append(1000.0 * (end - start))
            # inclusive time, counted once per outermost span of the name
            if parent is None or spans[parent][0] != name:
                values[f"{name}_s"] += end - start
            for key, amount in attrs.items():
                values[ATTRIBUTES[(name, key)]] += amount
    values["cli.permtest_self_s"] = self_by_name["cli.permtest"]
    values["cli.self_s"] = sum(t for n, t in self_by_name.items() if n.startswith("cli."))
    pairwise = values["metrics.pairwise_distances_s"]
    values["metrics.pairwise_parallelism"] = (
        values[f"{PAIR_SPAN}_s"] / pairwise if pairwise > 0 else 0.0)
    permutation = values["distortion.permutation_stats_s"]
    values["distortion.relabelings_per_s"] = (
        values["distortion.relabelings"] / permutation if permutation > 0 else 0.0)
    values["trace.errors"] = errors
    values["trace.missing"] = missing
    values["trace.spans"] = span_count
    return dict(values), dict(self_by_name), durations


def distribution(prefix, samples_ms) -> dict:
    """Median and tail of a duration sample. The tail is the highest
    percentile with at least ten samples beyond it; below 20 samples no such
    percentile reaches the median, and the median is reported as the tail."""
    samples = np.sort(np.asarray(samples_ms, dtype=float))
    count = len(samples)
    out = {f"{prefix}.samples": count}
    if count == 0:
        out.update({f"{prefix}_ms_p50": 0.0, f"{prefix}_ms_tail": 0.0,
                    f"{prefix}_tail_pct": 0.0})
        return out
    p50 = float(np.median(samples))
    if count >= 20:
        tail, pct = float(samples[count - 11]), 100.0 * (count - 10) / count
    else:
        tail, pct = p50, 50.0
    out.update({f"{prefix}_ms_p50": p50, f"{prefix}_ms_tail": tail,
                f"{prefix}_tail_pct": pct})
    return out
