"""Posting lists: sorted Dewey-id lists per keyword (paper §2.4).

"The inverted index list for a keyword ki contains the Dewey id of all the
nodes which contain that keyword."  A posting is simply a Dewey tuple; a
posting list is kept sorted in document order, which by the Dewey/pre-order
correspondence means plain tuple order.

This module also provides the sorted-list primitives used by the search
engine: binary search for the contiguous Dewey range of a subtree, and the
k-way merge of several posting lists into the paper's list ``SL``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import Iterable, Sequence

from repro.xmltree.dewey import Dewey, subtree_interval

PostingList = list[Dewey]

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
    """Half-open index range of postings inside ``subtree(ancestor)``.

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
    """Dewey ids present in *every* list (all sorted; result sorted).

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


class MergedEntry(tuple):
    """One entry of the merged list ``SL``: ``(dewey, keyword_index)``.

    Implemented as a plain tuple subclass so entries sort by Dewey id first
    (document order) and by keyword index second (deterministic ties when
    one element contains several query keywords).
    """

    __slots__ = ()

    def __new__(cls, dewey: Dewey, keyword: int) -> "MergedEntry":
        return super().__new__(cls, (dewey, keyword))

    @property
    def dewey(self) -> Dewey:
        return self[0]

    @property
    def keyword(self) -> int:
        return self[1]


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


def merge_posting_lists(lists: Iterable[Sequence[Dewey]]) -> list[MergedEntry]:
    """k-way merge of sorted posting lists into the sorted list ``SL``.

    Each input list *i* contributes entries tagged with keyword index *i*;
    equal Dewey ids under several keywords order by keyword index.  Runs
    in O(|SL|·log k) comparisons (:func:`merge_sorted_runs`), matching the
    paper's O(d·|SL|·log n) bound (each Dewey comparison is O(d)).
    """
    new = tuple.__new__  # skips MergedEntry.__new__'s Python frame
    return merge_sorted_runs(
        map(new, repeat(MergedEntry), zip(posting_list, repeat(index)))
        for index, posting_list in enumerate(lists))
