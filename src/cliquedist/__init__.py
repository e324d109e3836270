"""Distances between document collections, and distortion statistics that
quantify how well two labeled distance cliques match.
"""

from .cli import main
from .core import (
    ConceptTag,
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
    permute_labels,
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
    RelatednessConfig,
    RelatednessMode,
    SemanticTypeFilter,
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
    WmdConfig,
    ground_costs,
    nbow,
    rwmd_lower_bound,
    solve_ot,
    wmd,
    wmd_model,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineMode", "ConceptLexicon", "ConceptTag", "Corpus", "DistortionReport",
    "Document", "EmbeddingStore", "FeatureTable", "LabeledDistanceMatrix", "NBow",
    "RelatednessConfig", "RelatednessMode", "SemanticTypeFilter",
    "SimilarityTransform", "Sentence", "SolverError", "TransportPlan", "WmdConfig",
    "cosine_model", "cosine_similarity", "document_vector",
    "feature_difference_counts", "graph_distortion", "ground_costs",
    "load_concept_annotations", "load_concept_lexicon", "load_corpus",
    "load_distance_matrix", "load_embeddings", "load_feature_table",
    "load_summary_statements", "main", "merge_concepts", "nbow", "normalize_matrix",
    "pairwise_distances", "permutation_stats", "permute_labels",
    "random_baseline", "rwmd_lower_bound", "save_distance_matrix",
    "sim_to_distance", "solve_ot", "split_related", "split_sentences",
    "tokenize", "wmd", "wmd_model",
]
