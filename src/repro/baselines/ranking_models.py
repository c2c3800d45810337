"""Alternative ranking models from the related work (paper §3, §5).

The paper argues existing XML ranking methods are insufficient for GKS
because every ranked node there contains a *fixed* set of all query
keywords, whereas GKS nodes cover varying subsets.  To quantify that
argument (ablation bench A2+), two classic models are reproduced in a
GKS-compatible form — both are drop-in :data:`repro.core.search.Ranker`
callables:

* :func:`xrank_ranker` — XRank [7]-style decay ranking: each keyword's
  highest occurrence contributes ``λ^(distance from the result node)``;
  proximity to the result node matters, structure (fan-out) does not.
* :func:`xsearch_ranker` — XSEarch [8]-style TF·IDF: term frequency in
  the result subtree times corpus-level inverse document frequency;
  purely statistical, blind to structure.

Both share the terminal-point bookkeeping with the potential-flow ranker
so responses remain comparable, and like every ranker they receive and
record ids packed under the index's layout.
"""

from __future__ import annotations

import math
from functools import partial

from repro.core.query import Query
from repro.core.ranking import (RankBreakdown, keyword_occurrences,
                                terminal_points)
from repro.index.builder import GKSIndex


def xrank_ranker(index: GKSIndex, query: Query, dewey: int,
                 decay: float = 0.85) -> RankBreakdown:
    """XRank-style rank: decay per edge between node and occurrence."""
    layout = index.layout
    terminals: dict[str, tuple[int, ...]] = {}
    score = 0.0
    for keyword in query.keywords:
        points = terminal_points(keyword_occurrences(index, keyword,
                                                     dewey), layout)
        if not points:
            continue
        terminals[keyword] = points
        distance = layout.depth(points[0]) - layout.depth(dewey)
        score += decay ** distance
    return RankBreakdown.packed(dewey, score, len(terminals), terminals,
                                layout)


def make_xrank_ranker(decay: float):
    """An XRank ranker with a custom decay factor."""
    return partial(xrank_ranker, decay=decay)


def xsearch_ranker(index: GKSIndex, query: Query,
                   dewey: int) -> RankBreakdown:
    """XSEarch-style TF·IDF rank over the result subtree.

    ``tf`` is the occurrence count of the keyword inside the subtree,
    log-damped; ``idf`` uses the keyword's corpus posting count against
    the total element count.
    """
    total_nodes = max(index.stats.total_nodes, 1)
    terminals: dict[str, tuple[int, ...]] = {}
    score = 0.0
    for keyword in query.keywords:
        occurrences = keyword_occurrences(index, keyword, dewey)
        if not occurrences:
            continue
        terminals[keyword] = terminal_points(occurrences, index.layout)
        tf = 1.0 + math.log(len(occurrences))
        # len(postings) handles phrase keywords too
        df = max(len(index.postings(keyword)), 1)
        idf = math.log(1 + total_nodes / df)
        score += tf * idf
    return RankBreakdown.packed(dewey, score, len(terminals), terminals,
                                index.layout)
