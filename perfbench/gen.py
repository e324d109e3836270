"""Seeded synthetic inputs for the benchmark workloads.

Every file a generator writes is a function of the workload seed alone. Next
to the files, each generator returns what the oracles need (the token counts
and the vectors exactly as written) and the input statistics printed with the
results, so that a change to the inputs can be told apart from a change to
the program.

Vocabulary words, out-of-vocabulary words and lexicon phrase words are
consonant-vowel pseudo-words of different lengths (7, 8 and 5 letters), so
the three sets are disjoint and none of them is an English stopword.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]

# Stopwords written into the texts and into the embedding files. All of them
# are in the program's English stopword list, so `wmd` must drop them.
STOPWORDS = ("a", "an", "and", "are", "as", "at", "be", "by", "for", "from",
             "in", "is", "of", "on", "or", "that", "the", "this", "to", "with")

# Semantic types the program keeps by default, and some that it drops.
KEPT_TYPES = ("diap", "hlca", "dsyn", "neop", "qnco", "qlco",
              "tmco", "fndg", "geoa", "topp", "lbpr")
DROPPED_TYPES = ("orga", "bpoc", "phsu", "aapp")

VECTOR_SCALE = 10_000  # components are written as +d.dddd / -d.dddd


@dataclass
class Inputs:
    """Generated files, the data the oracles check against, and statistics."""

    files: dict[str, str]
    stats: dict
    oracle: dict = field(default_factory=dict)


def _pseudo_words(rng, count, syllables, final_consonant):
    """`count` distinct words of `syllables` CV pairs, plus a consonant if asked."""
    base = len(SYLLABLES)
    space = base ** syllables * (len(CONSONANTS) if final_consonant else 1)
    words = []
    for code in rng.choice(space, size=count, replace=False):
        code = int(code)
        word = ""
        if final_consonant:
            code, last = divmod(code, len(CONSONANTS))
        for _ in range(syllables):
            code, s = divmod(code, base)
            word += SYLLABLES[s]
        words.append(word + (CONSONANTS[last] if final_consonant else ""))
    return words


def _write_embeddings(path: Path, words, ints: np.ndarray) -> None:
    """word2vec text file; component k of word i is ints[i, k] / VECTOR_SCALE.

    Each component is written with a sign and four decimals, so parsing it
    gives exactly ints[i, k] / VECTOR_SCALE (both are the double nearest to
    the same rational number).
    """
    count, dim = ints.shape
    mag = np.abs(ints.astype(np.int32))
    chars = np.empty((count, dim, 8), dtype=np.uint8)
    chars[..., 0] = np.where(ints < 0, ord("-"), ord("+"))
    chars[..., 1] = ord("0")
    chars[..., 2] = ord(".")
    for k, div in enumerate((1000, 100, 10, 1)):
        chars[..., 3 + k] = ord("0") + (mag // div) % 10
    chars[..., 7] = ord(" ")
    chars[:, -1, 7] = ord("\n")
    rows = chars.reshape(count, dim * 8)
    with open(path, "wb") as fh:
        fh.write(f"{count} {dim}\n".encode())
        for word, row in zip(words, rows):
            fh.write(word.encode() + b" " + row.tobytes())


def write_matrix(path: Path, labels, values) -> None:
    """Distance CSV (header of labels, labeled rows), floats written exactly."""
    lines = [",".join(labels)]
    for lab, row in zip(labels, values):
        lines.append(",".join([lab] + [repr(float(x)) for x in row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _expert_matrix(rng, labels, features=12, levels=3):
    """Feature-difference counts of a seeded categorical feature table."""
    table = rng.integers(0, levels, size=(len(labels), features))
    return (table[:, None, :] != table[None, :, :]).sum(axis=2).astype(float)


def _zipf(count):
    weights = 1.0 / np.arange(1, count + 1)
    return weights / weights.sum()


def _sentences(rng, units, low, high):
    """Cut a unit list into consecutive sentences of low..high units."""
    out, start = [], 0
    while start < len(units):
        size = int(rng.integers(low, high + 1))
        out.append(units[start:start + size])
        start += size
    return out


def _sentence_text(words) -> str:
    return " ".join(words).capitalize() + "."


def wmd_pipeline(seed: int, root: Path) -> Inputs:
    """7 documents over a 2,000-word, dim-50 vocabulary for exact WMD."""
    rng = np.random.default_rng([seed, 1])
    content = _pseudo_words(rng, 2000 - len(STOPWORDS), 3, True)
    vocab = content + list(STOPWORDS)
    ints = rng.integers(-9999, 10000, size=(len(vocab), 50)).astype(np.int16)
    oov = _pseudo_words(rng, 200, 4, False)
    zipf = _zipf(len(content))
    # Fixed support sizes per document keep the OT work, and which pairs the
    # two pool threads solve side by side, comparable across seeds.
    uniques = [60, 73, 87, 100, 113, 127, 140]

    corpus_dir = root / "corpus"
    corpus_dir.mkdir()
    counts, tokens, oov_tokens, sentences = {}, 0, 0, 0
    for k, unique in enumerate(uniques):
        doc_id = f"DOC{k + 1}"
        chosen = rng.choice(len(content), size=int(unique), replace=False, p=zipf)
        weights = zipf[chosen] / zipf[chosen].sum()
        per_word = 1 + rng.multinomial(int(1.5 * unique), weights)
        counts[doc_id] = {int(w): int(c) for w, c in zip(chosen, per_word)}
        n_content = int(per_word.sum())
        n_stop, n_oov = round(0.4 * n_content), round(0.06 * n_content)
        words = [content[w] for w in np.repeat(chosen, per_word)]
        words += [STOPWORDS[i] for i in rng.integers(0, len(STOPWORDS), n_stop)]
        words += [oov[i] for i in rng.integers(0, len(oov), n_oov)]
        words = [words[i] for i in rng.permutation(len(words))]
        doc = _sentences(rng, words, 8, 20)
        (corpus_dir / f"{doc_id}.txt").write_text(
            "\n".join(_sentence_text(s) for s in doc) + "\n", encoding="utf-8")
        tokens += len(words)
        oov_tokens += n_oov
        sentences += len(doc)

    emb = root / "embeddings.txt"
    _write_embeddings(emb, vocab, ints)
    labels = list(counts)
    expert = root / "expert.csv"
    write_matrix(expert, labels, _expert_matrix(rng, labels))
    return Inputs(
        files={"corpus_dir": str(corpus_dir), "embeddings_path": str(emb),
               "expert_matrix_path": str(expert)},
        stats={"documents": len(labels), "tokens": tokens,
               "unique_in_vocab_words": int(sum(uniques)),
               "unique_in_vocab_min_max": [int(min(uniques)), int(max(uniques))],
               "oov_share": round(oov_tokens / tokens, 6),
               "sentences_kept": sentences, "vocabulary": len(vocab), "dim": 50},
        oracle={"counts": counts, "ints": ints})


def cosine_pipeline(seed: int, root: Path) -> Inputs:
    """60 documents of ~4,000 tokens, a 50,000-word dim-100 vocabulary, a
    lexicon of two-word phrases, concept annotations and a summary."""
    rng = np.random.default_rng([seed, 2])
    content = _pseudo_words(rng, 50_000 - len(STOPWORDS), 3, True)
    vocab = content + list(STOPWORDS)
    stop_index = len(content)
    ints = rng.integers(-9999, 10000, size=(len(vocab), 100)).astype(np.int16)
    oov = _pseudo_words(rng, 500, 4, False)
    phrase_words = _pseudo_words(rng, 600, 2, True)
    # phrase k is "phrase_words[2k] phrase_words[2k+1]" -> content[replacement[k]]
    replacement = rng.choice(len(content), size=300, replace=False)
    zipf = _zipf(len(content))

    lexicon = root / "lexicon.tsv"
    lexicon.write_text("".join(
        f"{phrase_words[2 * k]} {phrase_words[2 * k + 1]}\t{content[r]}\n"
        for k, r in enumerate(replacement)), encoding="utf-8")

    # Summary: 40 concepts of kept types split over 8 statements, plus one
    # concept of a dropped type per statement (filtered out of the summary).
    summary_types = {f"C{i:07d}": KEPT_TYPES[i % len(KEPT_TYPES)] for i in range(1, 41)}
    summary_cuis = list(summary_types)
    filtered_cuis = [f"C{900 + s:07d}" for s in range(8)]
    order = rng.permutation(40)
    summary = root / "summary.jsonl"
    with open(summary, "w", encoding="utf-8") as fh:
        for s in range(8):
            concepts = [{"cui": summary_cuis[i], "semtype": summary_types[summary_cuis[i]]}
                        for i in order[5 * s:5 * s + 5]]
            concepts.append({"cui": filtered_cuis[s], "semtype": DROPPED_TYPES[s % 4]})
            fh.write(json.dumps({"concepts": concepts}) + "\n")
    other_cuis = [f"C{i:07d}" for i in range(100, 400)]

    def kept_tag(cuis):
        return {"cui": cuis[int(rng.integers(len(cuis)))],
                "semtype": KEPT_TYPES[int(rng.integers(len(KEPT_TYPES)))]}

    corpus_dir = root / "corpus"
    corpus_dir.mkdir()
    annotations = root / "annotations.jsonl"
    budgets = rng.permutation(np.linspace(3500, 4500, 60).round().astype(int))
    kept_tokens = {}
    tokens = oov_tokens = sentences_total = sentences_kept = annotation_lines = 0
    with open(annotations, "w", encoding="utf-8") as ann:
        for k, budget in enumerate(budgets):
            doc_id = f"D{k:02d}"
            kind = rng.choice(4, size=int(budget), p=[0.80, 0.12, 0.05, 0.03])
            pick_content = rng.choice(len(content), size=int(budget), p=zipf)
            pick_stop = rng.integers(0, len(STOPWORDS), size=int(budget))
            pick_oov = rng.integers(0, len(oov), size=int(budget))
            pick_phrase = rng.integers(0, len(replacement), size=int(budget))
            # a unit is (written words, vocabulary index after merging or None)
            units = []
            for u, kd in enumerate(kind):
                if kd == 0:
                    units.append(([content[pick_content[u]]], int(pick_content[u])))
                elif kd == 1:
                    units.append(([STOPWORDS[pick_stop[u]]], stop_index + int(pick_stop[u])))
                elif kd == 2:
                    units.append(([oov[pick_oov[u]]], None))
                else:
                    p = int(pick_phrase[u])
                    units.append(([phrase_words[2 * p], phrase_words[2 * p + 1]],
                                  int(replacement[p])))
            doc = _sentences(rng, units, 10, 30)
            related = set(rng.choice(len(doc), size=round(0.1 * len(doc)),
                                     replace=False).tolist())
            kept = []
            for s_index, sent in enumerate(doc):
                lines = []
                if s_index in related:
                    kept += [v for _, v in sent if v is not None]
                    hit = {"cui": summary_cuis[int(rng.integers(40))]}
                    hit["semtype"] = summary_types[hit["cui"]]
                    extra = [kept_tag(other_cuis) for _ in range(int(rng.integers(3)))]
                    if extra and rng.random() < 0.3:  # concepts attach additively
                        lines += [[hit], extra]
                    else:
                        lines.append([hit] + extra)
                else:
                    case = int(rng.integers(4))
                    if case == 1:
                        lines.append([kept_tag(other_cuis)
                                      for _ in range(1 + int(rng.integers(3)))])
                    elif case == 2:
                        lines.append([{"cui": summary_cuis[int(rng.integers(40))],
                                       "semtype": DROPPED_TYPES[int(rng.integers(4))]}])
                    elif case == 3:
                        lines.append([kept_tag(filtered_cuis)])
                for concepts in lines:
                    ann.write(json.dumps({"doc_id": doc_id, "sent_index": s_index,
                                          "concepts": concepts}) + "\n")
                annotation_lines += len(lines)
            (corpus_dir / f"{doc_id}.txt").write_text(
                "\n".join(_sentence_text([w for ws, _ in s for w in ws]) for s in doc)
                + "\n", encoding="utf-8")
            kept_tokens[doc_id] = np.array(kept, dtype=np.int64)
            tokens += sum(len(ws) for ws, _ in units)
            oov_tokens += int((kind == 2).sum())
            sentences_total += len(doc)
            sentences_kept += len(related)

    emb = root / "embeddings.txt"
    _write_embeddings(emb, vocab, ints)
    labels = list(kept_tokens)
    expert = root / "expert.csv"
    write_matrix(expert, labels, _expert_matrix(rng, labels))
    unique = len(set().union(*(set(v.tolist()) for v in kept_tokens.values())))
    return Inputs(
        files={"corpus_dir": str(corpus_dir), "embeddings_path": str(emb),
               "lexicon_path": str(lexicon), "annotations_path": str(annotations),
               "summary_path": str(summary), "expert_matrix_path": str(expert)},
        stats={"documents": len(labels), "tokens": tokens,
               "unique_in_vocab_words": unique,
               "oov_share": round(oov_tokens / tokens, 6),
               "sentences": sentences_total, "sentences_kept": sentences_kept,
               "annotation_lines": annotation_lines,
               "vocabulary": len(vocab), "dim": 100,
               "embeddings_mb": round(emb.stat().st_size / 2**20, 1)},
        oracle={"kept_tokens": kept_tokens, "ints": ints})


def permtest_exact(seed: int, root: Path, pairs: int = 8, n: int = 9) -> Inputs:
    """`pairs` seeded pairs of n=9 matrices; the second of each pair lists its
    labels in a shuffled order, so the program has to align them by name."""
    rng = np.random.default_rng([seed, 3])
    labels = [f"N{i}" for i in range(n)]
    files = {}
    for k in range(pairs):
        a = rng.random((n, n))
        a = a + a.T
        b = a + rng.random((n, n))
        b = b + b.T
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(b, 0.0)
        order = rng.permutation(n)
        path_a, path_b = root / f"a{k}.csv", root / f"b{k}.csv"
        write_matrix(path_a, labels, a)
        write_matrix(path_b, [labels[i] for i in order], b[np.ix_(order, order)])
        files[f"matrix_a{k}"], files[f"matrix_b{k}"] = str(path_a), str(path_b)
    return Inputs(files=files, stats={"matrix_pairs": pairs, "n": n,
                                      "relabelings_per_call": int(np.prod(range(1, n + 1)))})


GENERATORS = {
    "wmd-pipeline": wmd_pipeline,
    "cosine-pipeline": cosine_pipeline,
    "permtest-exact": permtest_exact,
}
