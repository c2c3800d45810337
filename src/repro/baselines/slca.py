"""SLCA baselines — Xu & Papakonstantinou [13] (paper refs [2][13]).

A node is a *Smallest LCA* for query ``Q`` when its subtree contains every
query keyword and no node in its subtree also does.  Two algorithms are
provided:

* :func:`slca_indexed_lookup_eager` — the Indexed Lookup Eager algorithm:
  walk the shortest posting list; for each anchor compute the deepest node
  containing the anchor and a closest posting from every other list
  (O(n·|Smin|·log|Smax|) Dewey operations, the complexity the paper quotes
  in §4.2); then prune ancestors.
* :func:`slca_scan` — a merge-scan variant used as a second opinion: sweep
  the merged list with a last-seen-position table.

Both are cross-validated against the brute-force oracle in the test suite.
"""

from __future__ import annotations

from repro.baselines.lca import (dewey_postings, match_lca, posting_lists,
                                 remove_ancestors, tagged_merge)
from repro.core.query import Query
from repro.index.builder import GKSIndex
from repro.xmltree.dewey import Dewey, common_prefix


def slca_indexed_lookup_eager(index: GKSIndex, query: Query) -> list[Dewey]:
    """SLCA nodes via Indexed Lookup Eager, in document order."""
    lists = posting_lists(index, query)
    if any(not postings for postings in lists):
        return []
    if len(lists) == 1:
        return remove_ancestors(list(lists[0]))

    shortest = min(lists, key=len)
    others = [postings for postings in lists if postings is not shortest]
    candidates: list[Dewey] = []
    for anchor in shortest:
        lca = match_lca(anchor, others)
        if lca:
            candidates.append(lca)
    return remove_ancestors(candidates)


def slca_scan(index: GKSIndex, query: Query) -> list[Dewey]:
    """SLCA nodes via a single sweep of the merged occurrence stream.

    Maintains the most recent posting per keyword; whenever all keywords
    have been seen, the deepest common ancestor of the current window is a
    candidate.  Ancestor removal at the end yields the SLCAs.
    """
    lists = posting_lists(index, query)
    if any(not postings for postings in lists):
        return []
    last_seen: dict[int, Dewey] = {}
    candidates: list[Dewey] = []
    for dewey, keyword in tagged_merge(lists):
        last_seen[keyword] = dewey
        if len(last_seen) == len(lists):
            lca: Dewey | None = None
            for dewey in last_seen.values():
                lca = dewey if lca is None else common_prefix(lca, dewey)
            if lca:
                candidates.append(lca)
    return remove_ancestors(candidates)


def contains_all_keywords(index: GKSIndex, query: Query,
                          dewey: Dewey) -> bool:
    """True when every query keyword occurs in ``subtree(dewey)``."""
    from repro.index.postings import subtree_range

    for keyword in query.keywords:
        postings = dewey_postings(index, keyword)
        lo, hi = subtree_range(postings, dewey)
        if lo == hi:
            return False
    return True
