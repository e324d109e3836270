"""The functions the traced run wraps: (module, attribute, span name).

Each is rebound on the module where the program looks it up. The span name
is the layer that defines the function.
"""

TRACED = [
    ("cli", "main", "cli.main"),
    ("cli", "cmd_distances", "cli.distances"),
    ("cli", "cmd_permtest", "cli.permtest"),
    ("cli", "cmd_export_graph", "cli.export_graph"),
    ("cli", "load_embeddings", "core.load_embeddings"),
    ("cli", "load_distance_matrix", "core.load_distance_matrix"),
    ("cli", "save_distance_matrix", "core.save_distance_matrix"),
    ("cli", "load_concept_lexicon", "textprep.load_concept_lexicon"),
    ("cli", "load_corpus", "textprep.load_corpus"),
    ("cli", "load_concept_annotations", "textprep.load_concept_annotations"),
    ("cli", "load_summary_statements", "textprep.load_summary_statements"),
    ("cli", "split_related", "textprep.split_related"),
    ("cli", "pairwise_distances", "metrics.pairwise_distances"),
    ("metrics", "document_vector", "metrics.document_vector"),
    ("metrics", "cosine_similarity", "metrics.cosine_similarity"),
    ("cli", "permutation_stats", "distortion.permutation_stats"),
    ("wmd", "nbow", "wmd.nbow"),
    ("wmd", "ground_costs", "wmd.ground_costs"),
    ("wmd", "solve_ot", "wmd.solve_ot"),
]
PAIR_SPAN = "metrics.pair"  # one model evaluation inside pairwise_distances
SPAN_NAMES = [name for _, _, name in TRACED] + [PAIR_SPAN]
