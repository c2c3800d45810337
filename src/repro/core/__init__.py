"""GKS core: search pipeline, ranking, insights, refinement, engine."""

from repro.core.budget import DegradationReport, SearchBudget
from repro.core.chunks import chunk_keep_set, response_chunk
from repro.core.config import EngineConfig, Paths, SearchOptions, Texts
from repro.core.engine import GKSEngine
from repro.core.scatter import sharded_search, sharded_top_k
from repro.core.explain import RankExplanation, explain_rank
from repro.core.export import (insights_to_dict, node_to_dict,
                               response_to_dict)
from repro.core.insights import (Insight, InsightReport, attribute_nodes_of,
                                 discover_insights, discover_recursive)
from repro.core.lce import LCEInfo, LCEResult, discover_lce
from repro.core.lcp import LCPEntry, LCPList, compute_lcp_list, sliding_blocks
from repro.core.merge import merged_list
from repro.core.query import Query, split_phrases
from repro.core.ranking import (RankBreakdown, rank_by_keyword_count,
                                rank_node, received_potential,
                                terminal_points)
from repro.core.refinement import (Refinement, RefinementKind, suggest,
                                   suggest_expansions, suggest_subsets)
from repro.core.results import GKSResponse, RankedNode
from repro.core.search import search
from repro.core.topk import search_top_k

__all__ = [
    "DegradationReport", "EngineConfig", "Paths", "SearchBudget",
    "SearchOptions", "Texts",
    "sharded_search", "sharded_top_k",
    "GKSEngine", "GKSResponse", "Insight", "InsightReport", "LCEInfo",
    "RankExplanation", "chunk_keep_set", "explain_rank",
    "insights_to_dict", "node_to_dict", "response_chunk",
    "response_to_dict",
    "LCEResult", "LCPEntry", "LCPList", "Query", "RankBreakdown",
    "RankedNode", "Refinement", "RefinementKind",
    "attribute_nodes_of", "compute_lcp_list", "discover_insights",
    "discover_lce", "discover_recursive", "merged_list",
    "rank_by_keyword_count", "rank_node",
    "received_potential", "search", "search_top_k", "sliding_blocks",
    "split_phrases", "suggest", "suggest_expansions", "suggest_subsets",
    "terminal_points",
]
