"""Distances between document collections, and distortion statistics that
quantify how well two labeled distance cliques match.
"""

import os

# A second BLAS thread saved no wall time but spun for CPU, even on the cosine
# ground-cost GEMM, the one call big enough to thread. Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main
from .core import (
    Corpus,
    Document,
    EmbeddingStore,
    FeatureTable,
    LabeledDistanceMatrix,
    Sentence,
    load_distance_matrix,
    load_embeddings,
    load_feature_table,
    save_distance_matrix,
)
from .distortion import (
    BaselineMode,
    DistortionReport,
    graph_distortion,
    permutation_stats,
    random_baseline,
)
from .errors import SolverError
from .metrics import (
    SimilarityTransform,
    cosine_model,
    cosine_similarity,
    document_vector,
    feature_difference_counts,
    normalize_matrix,
    pairwise_distances,
    sim_to_distance,
)
from .textprep import (
    ConceptLexicon,
    RelatednessMode,
    load_concept_annotations,
    load_concept_lexicon,
    load_corpus,
    load_summary_statements,
    merge_concepts,
    split_related,
    split_sentences,
    tokenize,
)
from .wmd import (
    NBow,
    TransportPlan,
    ground_costs,
    nbow,
    solve_ot,
    wmd,
    wmd_model,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineMode", "ConceptLexicon", "Corpus", "DistortionReport", "Document",
    "EmbeddingStore", "FeatureTable", "LabeledDistanceMatrix", "NBow",
    "RelatednessMode", "SimilarityTransform", "Sentence", "SolverError",
    "TransportPlan",
    "cosine_model", "cosine_similarity", "document_vector",
    "feature_difference_counts", "graph_distortion", "ground_costs",
    "load_concept_annotations", "load_concept_lexicon", "load_corpus",
    "load_distance_matrix", "load_embeddings", "load_feature_table",
    "load_summary_statements", "main", "merge_concepts", "nbow", "normalize_matrix",
    "pairwise_distances", "permutation_stats", "random_baseline",
    "save_distance_matrix", "sim_to_distance", "solve_ot", "split_related",
    "split_sentences", "tokenize", "wmd", "wmd_model",
]
