"""Well-constructed response chunks (paper §1.2, Fig. 2(b)).

"GKS returns a well-constructed XML chunk."  Figure 2(b) shows what that
means: each result is rendered as its LCE element with (a) the attribute
nodes that define its context (``<Name>Data Mining</Name>``) and (b) the
paths to the *matched* keyword occurrences — unmatched repeating content
is pruned (the AI course shows Karen and Mike, not Serena and Peter).

``response_chunk`` reproduces that rendering from a ranked result: the
keep-set is the union of all matched-occurrence paths and the strict
attribute nodes hanging off that spine.
"""

from __future__ import annotations

from repro.core.query import Query
from repro.core.ranking import keyword_occurrences
from repro.core.results import RankedNode
from repro.index.builder import GKSIndex
from repro.xmltree.dewey import Dewey
from repro.xmltree.node import XMLNode
from repro.xmltree.repository import Repository
from repro.xmltree.serialize import serialize_node


def chunk_keep_set(index: GKSIndex, query: Query,
                   node: RankedNode) -> set[Dewey]:
    """Dewey ids to keep when rendering *node*'s chunk.

    The matched spine: every node on a path from the result element to a
    matched keyword occurrence (all occurrences, not just the ranking's
    terminal points — the paper's Fig. 2(b) shows every matched student).
    """
    keep: set[Dewey] = set()
    root = node.dewey
    layout = index.layout
    for keyword in node.matched_keywords:
        for occurrence in map(layout.unpack, keyword_occurrences(
                index, keyword, layout.pack(root))):
            for length in range(len(root) + 1, len(occurrence) + 1):
                keep.add(occurrence[:length])
    return keep


def response_chunk(repository: Repository, index: GKSIndex,
                   query: Query, node: RankedNode,
                   indent: int = 2) -> str:
    """Render the Fig. 2(b)-style chunk for one ranked result."""
    element = repository.node_at(node.dewey)
    if element is None:
        return f"<!-- missing node -->"
    keep = chunk_keep_set(index, query, node)
    spine = keep | {node.dewey}

    def keep_child(child: XMLNode) -> bool:
        if child.dewey in keep:
            return True
        # strict attribute nodes of spine elements give the context
        parent = child.parent
        if parent is None or parent.dewey not in spine:
            return False
        return (child.is_leaf and child.has_text
                and child.same_label_sibling_count() == 0)

    return serialize_node(element, indent=indent, keep=keep_child)
