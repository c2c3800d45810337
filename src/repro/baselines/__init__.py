"""Baselines: SLCA, ELCA, naïve GKS, and brute-force oracles."""

from repro.baselines.bruteforce import (brute_candidates, brute_elca,
                                        brute_slca, node_keywords,
                                        subtree_keyword_map)
from repro.baselines.elca import all_keyword_closure, elca
from repro.baselines.elca_stack import elca_stack
from repro.baselines.fslca import FSLCAResult, fslca
from repro.baselines.slca_intersect import slca_set_intersection
from repro.baselines.ranking_models import (make_xrank_ranker, xrank_ranker,
                                            xsearch_ranker)
from repro.baselines.target_type import (TypeScore, deduce_target_type,
                                         entity_type_instances,
                                         score_types)
from repro.baselines.lca import (closest_match, left_match, match_lca,
                                 posting_lists, remove_ancestors,
                                 right_match)
from repro.baselines.pworlds import (possible_worlds_probabilities,
                                     world_choices)
from repro.baselines.naive_gks import (keyword_subsets, naive_gks,
                                       subset_count)
from repro.baselines.slca import (contains_all_keywords,
                                  slca_indexed_lookup_eager, slca_scan)

__all__ = [
    "FSLCAResult", "TypeScore", "all_keyword_closure", "brute_candidates",
    "brute_elca", "brute_slca", "closest_match", "contains_all_keywords",
    "deduce_target_type", "elca", "elca_stack",
    "entity_type_instances", "fslca", "slca_set_intersection",
    "keyword_subsets", "left_match", "make_xrank_ranker", "match_lca",
    "naive_gks", "node_keywords", "posting_lists",
    "possible_worlds_probabilities", "world_choices", "remove_ancestors",
    "right_match", "score_types", "slca_indexed_lookup_eager",
    "slca_scan", "subset_count", "subtree_keyword_map", "xrank_ranker",
    "xsearch_ranker",
]
