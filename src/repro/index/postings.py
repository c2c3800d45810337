"""Posting lists: sorted Dewey-id lists per keyword (paper §2.4).

"The inverted index list for a keyword ki contains the Dewey id of all the
nodes which contain that keyword."  A posting is a Dewey id packed into an
int (:class:`~repro.xmltree.dewey.DeweyLayout`); a posting list is kept
sorted in document order, which the packing makes plain int order.

This module also provides the sorted-list primitives: the k-way merge of
posting lists into the paper's list ``SL``, intersection for phrases, and
for the oracles' tuple lists the binary search of a subtree's range.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import lshift, or_
from typing import Iterable, Sequence

from repro.xmltree.dewey import Dewey, DeweyLayout, subtree_interval

PostingList = list[int]

#: Bound on an index's derived lists (phrases, merged units) of client
#: keywords: far above any query's keyword count, probed per candidate.
DERIVED_LISTS_CACHED = 256


def cache_list(cache: dict, keyword: str, postings: PostingList) -> None:
    """``cache[keyword] = postings``, evicting the oldest entry when full;
    a lock-free caller's eviction raced by another thread is skipped."""
    if len(cache) >= DERIVED_LISTS_CACHED:
        try:
            cache.pop(next(iter(cache), None), None)
        except RuntimeError:  # the dict changed under the iterator
            pass
    cache[keyword] = postings


def subtree_range(postings: Sequence[Dewey],
                  ancestor: Dewey) -> tuple[int, int]:
    """Half-open index range of tuple postings inside ``subtree(ancestor)``.

    Because descendant ids are exactly the tuples with *ancestor* as a
    prefix, and tuple order is document order, the matching postings form a
    contiguous run locatable with two binary searches in O(log n).
    """
    lo_key, hi_key = subtree_interval(ancestor)
    lo = bisect_left(postings, lo_key)
    hi = bisect_left(postings, hi_key)
    return lo, hi


def count_in_subtree(postings: Sequence[Dewey], ancestor: Dewey) -> int:
    """Number of postings inside ``subtree(ancestor)``."""
    lo, hi = subtree_range(postings, ancestor)
    return hi - lo


def intersect_postings(lists: list[PostingList]) -> PostingList:
    """Ids present in *every* list (all sorted; result sorted).

    Used for phrase keywords ("Peter Buneman"): a node matches the phrase
    when its direct content holds every word of it — a bag-of-words-
    within-one-element approximation of phrase matching (the index stores
    no word positions, mirroring the paper's index layout).
    """
    if not lists:
        return []
    if any(not posting_list for posting_list in lists):
        return []
    result = lists[0]
    for other in lists[1:]:
        merged: PostingList = []
        i = j = 0
        while i < len(result) and j < len(other):
            if result[i] == other[j]:
                merged.append(result[i])
                i += 1
                j += 1
            elif result[i] < other[j]:
                i += 1
            else:
                j += 1
        result = merged
        if not result:
            break
    return result


class MergedList(list):
    """The merged list ``SL``: sorted ints ``id << keyword_bits | keyword``.

    ``id`` is a packed Dewey id and ``keyword`` the index of its query
    keyword, so entries sort by document order first and by keyword
    second (deterministic ties when one element holds several query
    keywords), and an entry is one machine word while the id stays
    within one.  :attr:`layout` is the ids' layout.  Truncate it in
    place (``del sl[n:]``): a slice is a plain list without them.
    """

    __slots__ = ("keyword_bits", "layout")


def merge_sorted_runs(runs: Iterable[Iterable]) -> list:
    """Merge sorted runs into one sorted list: concatenate, then sort.

    ``list.sort`` (Timsort) detects the presorted runs and merges them in
    O(n·log k) comparisons that all run inside the interpreter's C core —
    no per-item generator frame or heap step.  The sort is stable, so
    equal items keep their run order.
    """
    merged: list = []
    for run in runs:
        merged += run
    merged.sort()
    return merged


def merge_posting_lists(lists: Sequence[Sequence[int]],
                        layout: DeweyLayout) -> MergedList:
    """k-way merge of sorted posting lists into the sorted list ``SL``.

    List *i* contributes ``id << keyword_bits | i`` per id, where
    ``keyword_bits`` is just wide enough for the last index; equal ids
    under several keywords order by keyword index.  Runs in
    O(|SL|·log k) int comparisons (:func:`merge_sorted_runs`).
    """
    lists = list(lists)
    bits = (len(lists) - 1).bit_length() if lists else 0
    merged = MergedList()
    merged.keyword_bits, merged.layout = bits, layout
    for index, posting_list in enumerate(lists):
        if index:
            merged += map(or_, map(lshift, posting_list, repeat(bits)),
                          repeat(index))
        elif bits:
            merged += map(lshift, posting_list, repeat(bits))
        else:
            merged += posting_list
    merged.sort()
    return merged
