"""Unit tests for the merged list + LCP sliding window (paper §4.1)."""

import heapq

import pytest

from repro.core.lcp import (LCPEntry, LCPList, compute_lcp_list,
                            sliding_blocks)
from repro.core.merge import merged_list
from repro.core.query import Query
from repro.index.postings import MergedList, merge_posting_lists
from repro.xmltree.dewey import DeweyLayout


def entries(*pairs):
    """A merged list of ``(Dewey tuple, keyword)`` pairs, packed under
    the narrowest layout covering them."""
    layout = DeweyLayout.covering([dewey for dewey, _ in pairs])
    bits = max((keyword for _, keyword in pairs), default=0).bit_length()
    sl = MergedList(layout.pack(dewey) << bits | keyword
                    for dewey, keyword in pairs)
    sl.keyword_bits, sl.layout = bits, layout
    return sl


def keyword_at(sl, position):
    return sl[position] & ((1 << sl.keyword_bits) - 1)


def dewey_at(sl, position):
    return sl.layout.unpack(sl[position] >> sl.keyword_bits)


def unpacked_blocks(sl, s):
    """``sliding_blocks`` with its prefixes as tuples (``()``: none)."""
    return [(left, right,
             () if prefix is None else sl.layout.unpack(prefix))
            for left, right, prefix in sliding_blocks(sl, s)]


def entry_of(sl, lcp, dewey):
    return lcp.entries[sl.layout.pack(dewey)]


def estimate(sl, lcp, dewey):
    """The paper's keyword estimate of one entry: ``s + counter − 1``."""
    return lcp.s + entry_of(sl, lcp, dewey).counter - 1


class TestSlidingBlocks:
    def test_each_block_has_s_unique_keywords(self):
        sl = entries(((0, 0), 0), ((0, 1), 0), ((0, 2), 1), ((0, 3), 0))
        blocks = sliding_blocks(sl, 2)
        for left, right, _ in blocks:
            keywords = {keyword_at(sl, i) for i in range(left, right + 1)}
            assert len(keywords) >= 2

    def test_blocks_are_minimal_windows(self):
        # duplicates force r to reach past them
        sl = entries(((0, 0), 0), ((0, 1), 0), ((0, 2), 1))
        blocks = sliding_blocks(sl, 2)
        assert [(l, r) for l, r, _ in blocks] == [(0, 2), (1, 2)]

    def test_right_end_is_monotone(self):
        sl = entries(((0, 0), 0), ((0, 1), 1), ((0, 2), 0), ((0, 3), 1))
        rights = [r for _, r, _ in sliding_blocks(sl, 2)]
        assert rights == sorted(rights)

    def test_s_equal_one_blocks_are_singletons(self):
        sl = entries(((0, 0), 0), ((0, 5), 1))
        blocks = unpacked_blocks(sl, 1)
        assert [(l, r) for l, r, _ in blocks] == [(0, 0), (1, 1)]
        assert [prefix for _, _, prefix in blocks] == [(0, 0), (0, 5)]

    def test_insufficient_unique_keywords_yields_nothing(self):
        sl = entries(((0, 0), 0), ((0, 1), 0))
        assert sliding_blocks(sl, 2) == []

    def test_cross_document_block_has_empty_prefix(self):
        sl = entries(((0, 0), 0), ((1, 0), 1))
        blocks = unpacked_blocks(sl, 2)
        assert blocks == [(0, 1, ())]


class TestLCPList:
    def test_counter_increments_for_repeated_prefix(self):
        sl = entries(((0, 0, 0), 0), ((0, 0, 1), 1), ((0, 0, 2), 0))
        lcp = compute_lcp_list(sl, 2)
        assert entry_of(sl, lcp, (0, 0)).counter == 2
        assert estimate(sl, lcp, (0, 0)) == 3  # s+counter−1

    def test_first_block_positions_recorded(self):
        sl = entries(((0, 0, 0), 0), ((0, 0, 1), 1))
        lcp = compute_lcp_list(sl, 2)
        entry = entry_of(sl, lcp, (0, 0))
        assert (entry.first_left, entry.first_right) == (0, 1)

    def test_cross_document_blocks_skipped(self):
        sl = entries(((0, 0), 0), ((1, 0), 1))
        assert len(compute_lcp_list(sl, 2)) == 0

    def test_creation_order_preserved(self):
        sl = entries(((0, 0, 0), 0), ((0, 0, 1), 1), ((0, 1, 0), 0),
                     ((0, 1, 1), 1))
        lcp = compute_lcp_list(sl, 2)
        assert next(iter(lcp.entries)) == sl.layout.pack((0, 0))

    def test_contains_and_len(self):
        sl = entries(((0, 1, 0), 0), ((0, 1, 1), 1))
        lcp = compute_lcp_list(sl, 2)
        pack = sl.layout.pack
        assert pack((0, 1)) in lcp.entries
        assert pack((0, 2)) not in lcp.entries
        assert len(lcp) == 1


class TestPaperExample4:
    """Figure 4: SL = did.0.1.0.0, did.0.1.1.0.2, did.0.1.1.0.3,
    did.0.1.1.0.4, did.1.0.1, did.1.0.2 with s=2."""

    SL = entries(
        ((0, 0, 1, 0, 0), 0),
        ((0, 0, 1, 1, 0, 2), 1),
        ((0, 0, 1, 1, 0, 3), 0),
        ((0, 0, 1, 1, 0, 4), 1),
        ((0, 1, 0, 1), 0),
        ((0, 1, 0, 2), 1),
    )
    # (we model 'did' as a real document root component: did=doc 0, and
    #  the paper's 0.1 → (0, 0, 1) etc.)

    def test_lcp_list_matches_figure(self):
        lcp = compute_lcp_list(self.SL, 2)
        assert entry_of(self.SL, lcp, (0, 0, 1)).counter == 1
        assert entry_of(self.SL, lcp, (0, 0, 1, 1, 0)).counter == 2
        assert entry_of(self.SL, lcp, (0,)).counter == 1   # the 'did' entry
        assert entry_of(self.SL, lcp, (0, 1, 0)).counter == 1

    def test_estimates_match_figure(self):
        lcp = compute_lcp_list(self.SL, 2)
        assert estimate(self.SL, lcp, (0, 0, 1)) == 2
        assert estimate(self.SL, lcp, (0, 0, 1, 1, 0)) == 3


class TestMergedList:
    def test_merged_list_uses_query_keyword_order(self, figure1_index):
        query = Query.of(["a", "b"])
        sl = merged_list(figure1_index, query)
        deweys = [dewey_at(sl, i) for i in range(len(sl))]
        assert deweys == sorted(deweys)
        keywords = {keyword_at(sl, i) for i in range(len(sl))}
        assert keywords == {0, 1}

    def test_absent_keyword_contributes_nothing(self, figure1_index):
        query = Query.of(["a", "zzz"])
        sl = merged_list(figure1_index, query)
        assert all(keyword_at(sl, i) == 0 for i in range(len(sl)))


def heap_merged(lists):
    """A tagged ``heapq.merge`` over tuple lists: ``(dewey, index)``."""
    return list(heapq.merge(
        *([(dewey, index) for dewey in posting_list]
          for index, posting_list in enumerate(lists))))


def filed_blocks(sl, s):
    """The LCP list obtained by filing ``sliding_blocks(sl, s)``."""
    expected = LCPList(s=s)
    for left, right, prefix in sliding_blocks(sl, s):
        if prefix is None:
            continue
        entry = expected.entries.get(prefix)
        if entry is None:
            expected.entries[prefix] = LCPEntry(prefix, 1, left, right)
        else:
            entry.counter += 1
    return expected


class TestMergeAgainstHeapReference:
    """``merge_posting_lists`` equals :func:`heap_merged`."""

    @pytest.mark.parametrize("lists", [
        [],
        [[]],
        [[], [(0, 1)], []],
        [[(0, 1), (0, 5)], [(0, 3)]],
        # one Dewey id under several keywords: ties order by keyword index
        [[(0, 2), (0, 4)], [(0, 2)], [(0, 1), (0, 2), (1, 0)]],
        # interleaved documents and ancestor/descendant neighbours
        [[(0,), (0, 1, 0), (2, 0)], [(0, 1), (1,), (1, 0, 0)]],
    ])
    def test_equals_reference(self, lists):
        layout = DeweyLayout.covering(
            [dewey for posting_list in lists for dewey in posting_list])
        merged = merge_posting_lists(
            [list(map(layout.pack, posting_list)) for posting_list in lists],
            layout)
        assert isinstance(merged, MergedList) and merged.layout == layout
        assert [(dewey_at(merged, i), keyword_at(merged, i))
                for i in range(len(merged))] == heap_merged(lists)

    def test_accepts_a_generator_of_lists(self):
        layout = DeweyLayout([2])
        lists = [[layout.pack((0, 1))], [layout.pack((0, 0))]]
        merged = merge_posting_lists((lst for lst in lists), layout)
        assert list(merged) == [lists[1][0] << 1 | 1, lists[0][0] << 1]


class TestSweepAgainstReferenceBlocks:
    """``compute_lcp_list`` files exactly the blocks ``sliding_blocks``
    reports: entries in creation order, counters, first block."""

    def check(self, sl, width):
        for s in range(1, width + 1):
            lcp = compute_lcp_list(sl, s)
            expected = filed_blocks(sl, s)
            assert lcp == expected
            assert list(lcp.entries) == list(expected.entries)

    def test_paper_example(self):
        self.check(TestPaperExample4.SL, 2)

    def test_same_dewey_under_several_keywords(self):
        sl = entries(((0, 1), 0), ((0, 1), 1), ((0, 1), 2), ((0, 2), 1),
                     ((1, 0), 0), ((1, 0), 2))
        self.check(sl, 3)

    def test_empty_and_single_keyword_lists(self):
        self.check(entries(), 2)
        self.check(entries(((0, 0), 0), ((0, 1), 0)), 2)

    @pytest.mark.parametrize("keywords", [["a", "b"], ["a", "b", "c", "d"],
                                          ["d", "zzz", "a"]])
    def test_figure1_queries(self, figure1_index, keywords):
        query = Query.of(keywords)
        self.check(merged_list(figure1_index, query), len(keywords))
