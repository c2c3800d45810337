"""Inverted index for text keywords and element names (paper §2.4).

For each unique keyword appearing in the repository — after stop-word
removal and stemming — the index keeps a sorted list of the Dewey ids of
the elements that directly contain it (Table 3), packed into ints under
the index's :class:`~repro.xmltree.dewey.DeweyLayout`.  Element tag names are
indexed the same way (queries such as QM2 search for the tags ``country``
and ``name``), flagged separately so statistics can tell them apart.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Mapping

from repro.index.postings import PostingList
from repro.obs.trace import NOOP_TRACER


class InvertedIndex:
    """Keyword → sorted list of packed Dewey ids."""

    def __init__(self) -> None:
        self._postings: dict[str, PostingList] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, keyword: str, dewey: int) -> None:
        """Post *keyword* at *dewey*."""
        self.add_all((keyword,), dewey)

    def add_all(self, keywords: Iterable[str], dewey: int) -> None:
        """Post every keyword of *keywords* at *dewey*.

        The builder emits postings in document order, so appends dominate;
        the rare out-of-order posting (a document fed after one with a
        higher number) is insorted, and duplicates (same keyword twice in
        one element) collapse to a single entry.
        """
        postings = self._postings
        for keyword in keywords:
            posting_list = postings.get(keyword)
            if posting_list is None:
                postings[keyword] = [dewey]
            elif posting_list[-1] < dewey:
                posting_list.append(dewey)
            elif posting_list[-1] != dewey:
                position = bisect_left(posting_list, dewey)
                if posting_list[position] != dewey:
                    posting_list.insert(position, dewey)

    def discard_range(self, low: int, high: int) -> None:
        """Drop every posting in ``[low, high)`` — one document's ids, a
        failed document's rollback.  Keywords it introduced go with it,
        so the vocabulary keeps the order it had before."""
        postings = self._postings
        for keyword in [keyword for keyword, posting_list in postings.items()
                        if posting_list[-1] >= low]:
            posting_list = postings[keyword]
            del posting_list[bisect_left(posting_list, low):
                             bisect_left(posting_list, high)]
            if not posting_list:
                del postings[keyword]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Iterable[int]]
                     ) -> "InvertedIndex":
        """Rebuild an index from stored packed ids (posting lists
        re-sorted and de-duplicated)."""
        index = cls()
        for keyword, deweys in mapping.items():
            index._postings[keyword] = sorted(set(deweys))
        return index

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def postings(self, keyword: str, tracer=NOOP_TRACER) -> PostingList:
        """The sorted posting list ``S_i`` for *keyword* (empty if absent).

        *tracer* is for indexes that decode a list on first touch (a
        loaded binary file records a ``decode`` span); nothing to trace here.
        """
        return self._postings.get(keyword, [])

    def __contains__(self, keyword: str) -> bool:
        return keyword in self._postings

    def __len__(self) -> int:
        return len(self._postings)

    @property
    def vocabulary(self) -> list[str]:
        return sorted(self._postings)

    def document_frequency(self, keyword: str) -> int:
        return len(self._postings.get(keyword, ()))

    @property
    def total_postings(self) -> int:
        return sum(len(lst) for lst in self._postings.values())

    def items(self) -> Iterator[tuple[str, PostingList]]:
        yield from self._postings.items()
