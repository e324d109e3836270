"""Set-up time of one fresh interpreter: import the package, then load a
workload's inputs through its public loaders.

usage: python setup_probe.py INPUTS_JSON   (role -> path, as gen.py writes)

Prints {"setup_s": seconds, "package": path of the imported package}.
"""
import json
import sys
import time

with open(sys.argv[1], encoding="utf-8") as fh:
    files = json.load(fh)

start = time.perf_counter()
import cliquedist  # noqa: E402

if "embeddings_path" in files:
    cliquedist.load_embeddings(files["embeddings_path"])
if "corpus_dir" in files:
    lexicon = None
    if "lexicon_path" in files:
        lexicon = cliquedist.load_concept_lexicon(files["lexicon_path"])
    corpus = cliquedist.load_corpus(files["corpus_dir"], lexicon)
    if "annotations_path" in files:
        cliquedist.load_concept_annotations(files["annotations_path"], corpus)
    if "summary_path" in files:
        cliquedist.load_summary_statements(files["summary_path"])
for role in sorted(files):
    if role.startswith("matrix_") or role == "expert_matrix_path":
        cliquedist.load_distance_matrix(files[role])
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "package": cliquedist.__file__}))
