"""Unit tests for the merged list + LCP sliding window (paper §4.1)."""

import heapq

import pytest

from repro.core.lcp import LCPList, compute_lcp_list, sliding_blocks
from repro.core.merge import merged_list
from repro.core.query import Query
from repro.index.postings import MergedEntry, merge_posting_lists


def entries(*pairs):
    return [MergedEntry(dewey, keyword) for dewey, keyword in pairs]


class TestSlidingBlocks:
    def test_each_block_has_s_unique_keywords(self):
        sl = entries(((0, 0), 0), ((0, 1), 0), ((0, 2), 1), ((0, 3), 0))
        blocks = sliding_blocks(sl, 2)
        for left, right, _ in blocks:
            keywords = {sl[i].keyword for i in range(left, right + 1)}
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
        blocks = sliding_blocks(sl, 1)
        assert [(l, r) for l, r, _ in blocks] == [(0, 0), (1, 1)]
        assert [prefix for _, _, prefix in blocks] == [(0, 0), (0, 5)]

    def test_insufficient_unique_keywords_yields_nothing(self):
        sl = entries(((0, 0), 0), ((0, 1), 0))
        assert sliding_blocks(sl, 2) == []

    def test_cross_document_block_has_empty_prefix(self):
        sl = entries(((0, 0), 0), ((1, 0), 1))
        blocks = sliding_blocks(sl, 2)
        assert blocks == [(0, 1, ())]


class TestLCPList:
    def test_counter_increments_for_repeated_prefix(self):
        sl = entries(((0, 0, 0), 0), ((0, 0, 1), 1), ((0, 0, 2), 0))
        lcp = compute_lcp_list(sl, 2)
        assert lcp.entries[(0, 0)].counter == 2
        assert lcp.estimated_keyword_count((0, 0)) == 3  # s+counter−1

    def test_first_block_positions_recorded(self):
        sl = entries(((0, 0, 0), 0), ((0, 0, 1), 1))
        lcp = compute_lcp_list(sl, 2)
        entry = lcp.entries[(0, 0)]
        assert (entry.first_left, entry.first_right) == (0, 1)

    def test_cross_document_blocks_skipped(self):
        sl = entries(((0, 0), 0), ((1, 0), 1))
        assert len(compute_lcp_list(sl, 2)) == 0

    def test_creation_order_preserved(self):
        sl = entries(((0, 0, 0), 0), ((0, 0, 1), 1), ((0, 1, 0), 0),
                     ((0, 1, 1), 1))
        lcp = compute_lcp_list(sl, 2)
        assert lcp.deweys()[0] == (0, 0)

    def test_contains_and_len(self):
        lcp = LCPList(s=2)
        lcp.file((0, 1), 0, 1)
        assert (0, 1) in lcp and (0, 2) not in lcp
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
        assert lcp.entries[(0, 0, 1)].counter == 1
        assert lcp.entries[(0, 0, 1, 1, 0)].counter == 2
        assert lcp.entries[(0,)].counter == 1          # the 'did' entry
        assert lcp.entries[(0, 1, 0)].counter == 1

    def test_estimates_match_figure(self):
        lcp = compute_lcp_list(self.SL, 2)
        assert lcp.estimated_keyword_count((0, 0, 1)) == 2
        assert lcp.estimated_keyword_count((0, 0, 1, 1, 0)) == 3


class TestMergedList:
    def test_merged_list_uses_query_keyword_order(self, figure1_index):
        query = Query.of(["a", "b"])
        sl = merged_list(figure1_index, query)
        deweys = [entry.dewey for entry in sl]
        assert deweys == sorted(deweys)
        keywords = {entry.keyword for entry in sl}
        assert keywords == {0, 1}

    def test_absent_keyword_contributes_nothing(self, figure1_index):
        query = Query.of(["a", "zzz"])
        sl = merged_list(figure1_index, query)
        assert all(entry.keyword == 0 for entry in sl)


def heap_merged(lists):
    """The tagged ``heapq.merge`` that ``merge_posting_lists`` replaced."""
    return [MergedEntry(dewey, index)
            for dewey, index in heapq.merge(
                *([(dewey, index) for dewey in posting_list]
                  for index, posting_list in enumerate(lists)))]


def filed_blocks(sl, s):
    """The LCP list obtained by filing ``sliding_blocks(sl, s)``."""
    expected = LCPList(s=s)
    for left, right, prefix in sliding_blocks(sl, s):
        if prefix:
            expected.file(prefix, left, right)
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
        merged = merge_posting_lists(lists)
        assert merged == heap_merged(lists)
        assert all(isinstance(entry, MergedEntry) for entry in merged)

    def test_accepts_a_generator_of_lists(self):
        lists = [[(0, 1)], [(0, 0)]]
        assert merge_posting_lists(lst for lst in lists) == \
            heap_merged(lists)


class TestSweepAgainstReferenceBlocks:
    """``compute_lcp_list`` files exactly the blocks ``sliding_blocks``
    reports: entries in creation order, counters, first block."""

    def check(self, sl, width):
        for s in range(1, width + 1):
            lcp = compute_lcp_list(sl, s)
            expected = filed_blocks(sl, s)
            assert lcp == expected
            assert lcp.deweys() == expected.deweys()

    def test_paper_example(self):
        self.check(TestPaperExample4.SL, 2)

    def test_same_dewey_under_several_keywords(self):
        sl = entries(((0, 1), 0), ((0, 1), 1), ((0, 1), 2), ((0, 2), 1),
                     ((1, 0), 0), ((1, 0), 2))
        self.check(sl, 3)

    def test_empty_and_single_keyword_lists(self):
        self.check([], 2)
        self.check(entries(((0, 0), 0), ((0, 1), 0)), 2)

    @pytest.mark.parametrize("keywords", [["a", "b"], ["a", "b", "c", "d"],
                                          ["d", "zzz", "a"]])
    def test_figure1_queries(self, figure1_index, keywords):
        query = Query.of(keywords)
        self.check(merged_list(figure1_index, query), len(keywords))
