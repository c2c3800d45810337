"""ELCA baseline — Exclusive LCA semantics (paper refs [7][17]).

A node ``v`` is an *Exclusive LCA* for query ``Q`` when, for every keyword,
``v``'s subtree holds at least one occurrence that is not inside any
descendant of ``v`` that itself contains all the keywords.  The ELCA set is
a superset of the SLCA set (the paper's Fig. 1: ``x1`` is ELCA but not
SLCA because of ``x2``).

Implementation (index-only, no tree access):

1. All-keyword nodes form the ancestor closure ``C`` of the SLCA set —
   every ancestor of an all-keyword node again contains all keywords.
2. For ``v ∈ C`` the maximal all-keyword nodes strictly inside ``v`` are
   exactly the members of ``C`` whose parent is ``v`` (closure property),
   so the exclusion zones are ``v``'s children in ``C``.
3. ``v`` is ELCA iff every keyword has more occurrences in ``v``'s subtree
   than in those zones combined — four binary searches per keyword/zone.

Cross-validated against the brute-force oracle on randomized trees.
"""

from __future__ import annotations

from repro.baselines.lca import dewey_postings
from repro.baselines.slca import slca_indexed_lookup_eager
from repro.core.query import Query
from repro.index.builder import GKSIndex
from repro.index.postings import count_in_subtree
from repro.xmltree.dewey import Dewey, ancestors_of


def all_keyword_closure(index: GKSIndex, query: Query) -> list[Dewey]:
    """All nodes whose subtree contains every query keyword, sorted.

    Computed as the ancestor closure of the SLCA set.
    """
    slcas = slca_indexed_lookup_eager(index, query)
    closure: set[Dewey] = set()
    for dewey in slcas:
        closure.add(dewey)
        closure.update(ancestors_of(dewey))
    return sorted(closure)


def elca(index: GKSIndex, query: Query) -> list[Dewey]:
    """ELCA nodes in document order."""
    closure = all_keyword_closure(index, query)
    if not closure:
        return []
    closure_set = set(closure)
    children_in_closure: dict[Dewey, list[Dewey]] = {}
    for dewey in closure:
        parent = dewey[:-1]
        if parent in closure_set:
            children_in_closure.setdefault(parent, []).append(dewey)

    results: list[Dewey] = []
    for dewey in closure:
        zones = children_in_closure.get(dewey, [])
        if _has_exclusive_witnesses(index, query, dewey, zones):
            results.append(dewey)
    return results


def _has_exclusive_witnesses(index: GKSIndex, query: Query, dewey: Dewey,
                             zones: list[Dewey]) -> bool:
    for keyword in query.keywords:
        postings = dewey_postings(index, keyword)
        inside = count_in_subtree(postings, dewey)
        excluded = sum(count_in_subtree(postings, zone) for zone in zones)
        if inside - excluded <= 0:
            return False
    return True
