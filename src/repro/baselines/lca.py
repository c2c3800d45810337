"""Shared LCA machinery for the baseline algorithms.

The SLCA/ELCA baselines ([13], [17] in the paper) operate on the same
inverted index as GKS: per-keyword sorted Dewey posting lists, unpacked
into tuples here (the oracles work on tuples).  This module holds the
pieces they share — closest-posting lookups and the notion of a *match
set* (one posting per keyword).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from repro.core.query import Query
from repro.index.builder import GKSIndex
from repro.xmltree.dewey import Dewey, common_prefix, is_ancestor_or_self


def dewey_postings(index: GKSIndex, keyword: str) -> list[Dewey]:
    """*keyword*'s posting list as Dewey tuples."""
    return list(map(index.layout.unpack, index.postings(keyword)))


def posting_lists(index: GKSIndex, query: Query) -> list[list[Dewey]]:
    """The per-keyword posting lists ``S1 … Sn`` for a query."""
    return [dewey_postings(index, keyword) for keyword in query.keywords]


def tagged_merge(lists: Sequence[Sequence[Dewey]]) -> list[tuple[Dewey, int]]:
    """``(dewey, list index)`` over all lists, in document order (ties by
    list index)."""
    return sorted((dewey, position) for position, postings
                  in enumerate(lists) for dewey in postings)


def left_match(postings: Sequence[Dewey], bound: Dewey) -> Dewey | None:
    """``lm``: the rightmost posting ≤ *bound* (None when none exists)."""
    position = bisect_right(postings, bound)
    if position == 0:
        return None
    return postings[position - 1]


def right_match(postings: Sequence[Dewey], bound: Dewey) -> Dewey | None:
    """``rm``: the leftmost posting ≥ *bound* (None when none exists)."""
    position = bisect_left(postings, bound)
    if position == len(postings):
        return None
    return postings[position]


def closest_match(postings: Sequence[Dewey], anchor: Dewey) -> Dewey | None:
    """The posting whose LCA with *anchor* is deepest.

    Xu & Papakonstantinou's key observation: it is always either the left
    or the right neighbour of *anchor* in the sorted list, because Dewey
    order clusters subtrees.
    """
    left = left_match(postings, anchor)
    right = right_match(postings, anchor)
    if left is None:
        return right
    if right is None:
        return left
    left_depth = len(common_prefix(left, anchor))
    right_depth = len(common_prefix(right, anchor))
    return left if left_depth >= right_depth else right


def match_lca(anchor: Dewey,
              other_lists: list[Sequence[Dewey]]) -> Dewey | None:
    """Deepest node containing *anchor* plus one posting from every list.

    Returns ``None`` when some list is empty or the only common ancestor
    would cross documents.
    """
    lca = anchor
    for postings in other_lists:
        closest = closest_match(postings, anchor)
        if closest is None:
            return None
        lca = common_prefix(lca, closest)
        if not lca:
            return None
    return lca


def remove_ancestors(candidates: list[Dewey]) -> list[Dewey]:
    """Keep only nodes with no candidate strictly inside their subtree.

    Sorted-order trick: a node's strict descendants (if any) directly
    follow it in document order, so one pass over the sorted, deduplicated
    list suffices.
    """
    ordered = sorted(set(candidates))
    survivors = []
    for position, dewey in enumerate(ordered):
        if (position + 1 < len(ordered)
                and is_ancestor_or_self(dewey, ordered[position + 1])):
            continue
        survivors.append(dewey)
    return survivors
