"""Top-k GKS search with bound-based early termination.

The paper's related work cites top-k XML keyword search [6] as the
efficiency frontier; this module brings the idea to GKS.  When a caller
only wants the ``k`` best nodes of ``RQ(s)``, fully ranking hundreds of
response nodes (QI1 returns 8170 in the paper) is wasted work.

The potential-flow rank of a node with ``P`` distinct query keywords is
bounded by ``P²``: flowing potential is conserved — the terminals of one
keyword are disjoint nodes and jointly receive at most the source
potential ``P``; summing over at most ``P`` matched keywords gives
``P²``.  Distinct-keyword counts cost one binary search per keyword, so
the algorithm:

1. takes the response candidates exactly as :func:`repro.core.search`
   does — top-k is the second *select* policy of the one driver
   (:func:`repro.core.search.run_pipeline`), so it covers every index
   layout the full search covers,
2. counts distinct keywords per node (cheap),
3. processes nodes in ``(-P², dewey)`` order, computing exact ranks,
4. stops as soon as the current k-th best cannot be displaced by the next
   node or any after it (:func:`_bound_key`).

The result equals the head of the full ranking (same sort key), with the
skipped tail never ranked.

Ranker contract the stop rule relies on: for a node with ``P`` distinct
query keywords in its subtree a ranker returns ``score ≤ P²`` and
``distinct_keywords ≤ P``.  :func:`repro.core.ranking.rank_node` and
``rank_by_keyword_count`` do; a ranker that can score above ``P²`` must
be run through the full :func:`repro.core.search.search` instead.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from functools import partial

from repro.core.budget import SearchBudget
from repro.core.query import Query
from repro.core.ranking import rank_node
from repro.core.results import GKSResponse, RankedNode
from repro.core.search import Candidate, Ranker, ranked_node, run_pipeline
from repro.errors import ConfigError
from repro.index.builder import GKSIndex
from repro.obs.trace import NullTracer, Tracer
from repro.xmltree.dewey import Dewey


def distinct_keyword_count(index: GKSIndex, query: Query,
                           dewey: Dewey) -> int:
    """Number of distinct query keywords in ``subtree(dewey)``."""
    depth = len(dewey)
    count = 0
    for keyword in query.keywords:
        postings = index.postings(keyword)
        # the first posting at or after dewey is the subtree's first, if
        # the subtree has any: no need to find where the range ends
        lo = bisect_left(postings, dewey)
        if lo < len(postings) and postings[lo][:depth] == dewey:
            count += 1
    return count


def search_top_k(index: GKSIndex, query: Query, k: int,
                 ranker: Ranker = rank_node,
                 budget: SearchBudget | None = None,
                 tracer: Tracer | NullTracer | None = None) -> GKSResponse:
    """The k highest-ranked nodes of ``RQ(s)``, skipping tail ranking.

    A :class:`SearchBudget` bounds the candidate stages exactly as in
    :func:`repro.core.search.search`; a tripped budget yields the top-k
    of the partially discovered candidate set, flagged ``degraded``.
    Stage timings come from the *tracer*'s clock (see
    :func:`repro.core.search.search`).
    """
    if k < 1:
        raise ConfigError(f"k must be positive: {k}")
    return run_pipeline(index, query, partial(_top_k, k), ranker, budget,
                        tracer, "search_top_k", k=k)


def _top_k(k: int, query: Query, ranker: Ranker,
           candidates: list[Candidate], budget: SearchBudget | None,
           span) -> list[RankedNode]:
    """The top-k select policy: rank in bound order, stop when settled."""
    bounded = sorted(
        ((distinct_keyword_count(unit.index, query, dewey), dewey, unit)
         for dewey, unit in candidates),
        key=lambda item: (-(item[0] ** 2), item[1]))

    # min-heap over the current best k, ordered so the root is the
    # *worst* of the best; a sequence number breaks exact key ties.
    best: list[tuple[tuple, int, RankedNode]] = []
    ranked_count = 0
    for sequence, (count, dewey, unit) in enumerate(bounded):
        if (len(best) >= k and best[0][2].sort_key()
                <= _bound_key(count, dewey)):
            break  # nothing later can displace the current top k
        if (budget is not None
                and budget.checkpoint("rank", sequence, len(bounded))):
            break
        node = ranked_node(query, ranker, dewey, unit)
        ranked_count += 1
        entry = (_heap_key(node), sequence, node)
        if len(best) < k:
            heapq.heappush(best, entry)
        elif entry[0] > best[0][0]:
            heapq.heapreplace(best, entry)
    span.add("ranked", ranked_count)
    span.add("skipped", len(bounded) - ranked_count)
    return sorted((node for _, _, node in best), key=RankedNode.sort_key)


def _heap_key(node: RankedNode) -> tuple:
    """Heap ordering: *better* nodes compare greater.

    Mirrors :meth:`RankedNode.sort_key` (score desc, coverage desc,
    document order asc) with inverted orientation so a min-heap keeps the
    worst of the current best at the root.
    """
    # The positive sentinel keeps ancestor-before-descendant ordering
    # under negation: (0,-1,1) > (0,-1,-5,1) just as (0,1) < (0,1,5).
    return (node.score, node.distinct_keywords,
            tuple(-component for component in node.dewey) + (1,))


def _bound_key(count: int, dewey: Dewey) -> tuple:
    """The best :meth:`RankedNode.sort_key` the candidate ``(count,
    dewey)`` — or any candidate after it in ``(-P², dewey)`` order — can
    still reach.

    Under the ranker contract (module docstring) such a candidate scores
    at most ``count²``; one that reaches it has exactly ``count``
    distinct keywords and sits at or after *dewey* in document order.  A
    k-th best whose sort key is at or before this one is final —
    including one that *ties* the bound from an earlier document
    position.
    """
    return (-float(count * count), -count, dewey)
