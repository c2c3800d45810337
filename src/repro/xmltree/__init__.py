"""XML substrate: Dewey ids, labeled trees, streaming parser, repository."""

from repro.xmltree.dewey import (Dewey, ancestors_of, block_lcp,
                                 common_prefix, depth_of, format_dewey,
                                 is_ancestor, is_ancestor_or_self, lca_of,
                                 make_dewey, parse_dewey, subtree_interval)
from repro.xmltree.node import XMLNode, build_tree
from repro.xmltree.parser import (RecoveryPolicy, SalvageLog, TreeBuilder,
                                  iter_events, iter_events_salvage,
                                  parse_document)
from repro.xmltree.repository import IngestFailure, Repository
from repro.xmltree.serialize import (serialize_document, serialize_node)
from repro.xmltree.tree import XMLDocument

__all__ = [
    "Dewey", "IngestFailure", "RecoveryPolicy", "SalvageLog",
    "XMLNode", "XMLDocument", "Repository", "TreeBuilder",
    "ancestors_of", "block_lcp", "build_tree", "common_prefix", "depth_of",
    "format_dewey", "is_ancestor", "is_ancestor_or_self", "iter_events",
    "iter_events_salvage",
    "lca_of", "make_dewey", "parse_dewey", "parse_document",
    "serialize_document", "serialize_node",
    "subtree_interval",
]
