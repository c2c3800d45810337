"""Longest-Common-Prefix (LCP) list generation (paper §4.1, Figs 4–6).

The merged list ``SL`` is swept once with a sliding window ``[l, r]``:

* ``r`` grows until the window holds ``s`` *unique* query keywords — the
  paper's ``sU(l, r, s)`` test (Fig. 5);
* the longest common prefix of the block is, by Lemma 6, the common prefix
  of its first and last Dewey ids — the Dewey id of the lowest common
  ancestor of the whole block;
* the prefix is filed into the LCP list; a repeated prefix increments its
  counter ("if a prefix exists in the LCP list, its counter is increased
  by 1"), so a node's estimated keyword count is ``s + counter − 1``;
* then ``l`` advances by one.  Because dropping the leftmost entry can only
  lose uniqueness, the minimal ``r`` is monotone in ``l`` and the sweep is
  O(|SL|) window operations, O(d·|SL|) total.

Blocks whose entries span two documents have no common ancestor and are
skipped.  ``SL`` entries are packed ints (:class:`~repro.index.postings.
MergedList`), so a block's prefix is one xor, one bit length and one mask
(:meth:`~repro.xmltree.dewey.DeweyLayout.sl_masks`), and a bit length past
the masks means two documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.budget import SearchBudget
from repro.index.postings import MergedList


@dataclass(slots=True)
class LCPEntry:
    """One candidate GKS node: an LCP-list row plus its first block."""

    dewey: int             # packed
    counter: int = 1
    first_left: int = 0    # SL position of l when the entry was created
    first_right: int = 0   # SL position of r when the entry was created


@dataclass
class LCPList:
    """Ordered LCP list: entries in first-creation order, with counters,
    keyed by packed Dewey id."""

    s: int
    entries: dict[int, LCPEntry] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)


def sliding_blocks(sl: MergedList,
                   s: int) -> list[tuple[int, int, int | None]]:
    """All minimal ``s``-unique blocks as ``(l, r, prefix)`` triples.

    The readable form of the sweep: tests check the window invariants on
    it and hold :func:`compute_lcp_list` to it.  Cross-document blocks
    are reported with the prefix ``None``.
    """
    bits, layout = sl.keyword_bits, sl.layout
    keyword_of = (1 << bits) - 1
    blocks: list[tuple[int, int, int | None]] = []
    counts: dict[int, int] = {}
    unique = 0
    right = -1
    for left in range(len(sl)):
        while unique < s and right + 1 < len(sl):
            right += 1
            keyword = sl[right] & keyword_of
            counts[keyword] = counts.get(keyword, 0) + 1
            if counts[keyword] == 1:
                unique += 1
        if unique < s:
            break  # no block with s unique keywords starts at or after left
        blocks.append((left, right, layout.common_prefix(
            sl[left] >> bits, sl[right] >> bits)))
        keyword = sl[left] & keyword_of
        counts[keyword] -= 1
        if counts[keyword] == 0:
            unique -= 1
    return blocks


def compute_lcp_list(sl: MergedList, s: int,
                     budget: SearchBudget | None = None) -> LCPList:
    """Sweep ``SL`` and build the LCP list (the candidate GKS nodes).

    Files exactly the blocks of :func:`sliding_blocks`, in one loop with
    no per-block call: keyword counts sit in a list, the block prefix is
    computed in place and filed straight into ``lcp.entries``.  The
    window's right end only moves forward, so it reads ``SL`` through an
    iterator.  With a budget the sweep polls the deadline between blocks
    and stops early when it trips, leaving a coherent partial LCP list.
    """
    lcp = LCPList(s=s)
    entries = lcp.entries
    total = len(sl)
    checkpoint = None if budget is None else budget.checkpoint
    bits = sl.keyword_bits

    if s == 1:
        # every entry is its own minimal block: no window, prefix = id
        for left, item in enumerate(sl):
            if checkpoint is not None and checkpoint("lcp", left, total):
                break
            dewey = item >> bits
            entry = entries.get(dewey)
            if entry is None:
                entries[dewey] = LCPEntry(dewey, 1, left, left)
            else:
                entry.counter += 1
        return lcp

    keyword_of = (1 << bits) - 1
    counts = [0] * (keyword_of + 1)
    masks = sl.layout.sl_masks(bits)
    documents = len(masks)  # an xor this long spans two documents
    unique = 0
    right = -1
    ahead = iter(sl)
    last = 0
    for left, first in enumerate(sl):
        while unique < s and right + 1 < total:
            right += 1
            last = next(ahead)
            keyword = last & keyword_of
            if not counts[keyword]:
                unique += 1
            counts[keyword] += 1
        if unique < s:
            break  # no block with s unique keywords starts at or after left
        if checkpoint is not None and checkpoint("lcp", left, total):
            break
        length = (first ^ last).bit_length()
        if length < documents:  # same document: the block has an LCA
            prefix = (first & masks[length]) >> bits
            entry = entries.get(prefix)
            if entry is None:
                entries[prefix] = LCPEntry(prefix, 1, left, right)
            else:
                entry.counter += 1
        leaving = first & keyword_of
        counts[leaving] -= 1
        if not counts[leaving]:
            unique -= 1
    return lcp
