"""Generic Keyword Search over XML data (GKS).

A from-scratch reproduction of *"Generic Keyword Search over XML Data"*
(Agarwal, Ramamritham & Agarwal, EDBT 2016).  GKS answers a keyword query
``Q`` with every XML node whose subtree contains at least ``min(s, |Q|)``
distinct query keywords, ranks results with a potential-flow model, and
mines Deeper analytical Insights (DI) for query refinement.

Quickstart::

    from repro import GKSEngine

    engine = GKSEngine.open([xml_text])
    response = engine.search("karen mike data mining", s=2)
    for node in response.top(5):
        print(engine.describe(node))
    for insight in engine.insights(response):
        print(insight.render())

:mod:`repro.api` is the stable import surface (engine, configs,
response types, errors, codecs).

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.baselines import (elca, naive_gks, slca_indexed_lookup_eager,
                             slca_scan)
from repro.core import (DegradationReport, EngineConfig, GKSEngine,
                        GKSResponse, Insight, InsightReport, Paths, Query,
                        RankedNode, Refinement, SearchBudget,
                        SearchOptions, Texts, search, search_top_k,
                        sharded_search, sharded_top_k)
from repro.datasets import load_dataset
from repro.errors import (ConfigError, GKSError, Overloaded, SearchTimeout,
                          StorageError)
from repro.index import (GKSIndex, IndexBuilder, NodeCategory, ShardedIndex,
                         build_index, build_sharded_index, categorize_tree,
                         load_index, save_index)
from repro.schema import build_schema_index, infer_schema
from repro.serve import ServeConfig, ServerCore
from repro.text import Analyzer
from repro.xmltree import (IngestFailure, RecoveryPolicy, Repository,
                           XMLDocument, XMLNode, parse_document)

__version__ = "1.0.0"

__all__ = [
    "Analyzer", "ConfigError", "DegradationReport", "EngineConfig",
    "GKSEngine", "GKSError", "GKSIndex",
    "GKSResponse", "IndexBuilder", "IngestFailure",
    "Insight", "InsightReport", "NodeCategory",
    "Overloaded", "Paths", "Query", "RankedNode",
    "RecoveryPolicy", "Refinement", "Repository", "SearchBudget",
    "SearchOptions", "SearchTimeout", "ServeConfig", "ServerCore",
    "ShardedIndex", "StorageError", "Texts",
    "XMLDocument", "XMLNode",
    "build_index", "build_schema_index",
    "build_sharded_index",
    "categorize_tree", "elca", "infer_schema",
    "load_dataset", "load_index", "naive_gks", "parse_document",
    "save_index", "search",
    "search_top_k", "sharded_search", "sharded_top_k",
    "slca_indexed_lookup_eager", "slca_scan",
]
