"""Unit tests for Dewey-id algebra (paper §2.1)."""

import pytest

from repro.errors import DeweyError
from repro.xmltree import dewey as dw


class TestConstruction:
    def test_make_dewey_validates_components(self):
        assert dw.make_dewey([0, 2, 3]) == (0, 2, 3)

    def test_make_dewey_rejects_empty(self):
        with pytest.raises(DeweyError):
            dw.make_dewey([])

    def test_make_dewey_rejects_negative(self):
        with pytest.raises(DeweyError):
            dw.make_dewey([0, -1])

    def test_parse_round_trips_format(self):
        assert dw.parse_dewey("0.2.3") == (0, 2, 3)
        assert dw.format_dewey((0, 2, 3)) == "0.2.3"

    def test_parse_rejects_garbage(self):
        with pytest.raises(DeweyError):
            dw.parse_dewey("0.two.3")

    @pytest.mark.parametrize("text, complaint", [
        ("", "malformed"), (".", "malformed"), ("0..1", "malformed"),
        ("0.1.", "malformed"), ("0.1.5x", "malformed"),
        ("-1.2", "non-negative"), ("0.-3", "non-negative")])
    def test_parse_rejects_empty_non_numeric_and_negative(self, text,
                                                          complaint):
        with pytest.raises(DeweyError, match=complaint):
            dw.parse_dewey(text)

    def test_parse_agrees_with_make_dewey(self):
        for text in ("0", "7.0.12", "3.1415.9", " 1 . 2"):
            assert dw.parse_dewey(text) == dw.make_dewey(
                int(part) for part in text.split("."))


class TestNavigation:
    def test_parent_strips_last_component(self):
        assert dw.parent_of((0, 2, 3)) == (0, 2)

    def test_parent_of_root_fails(self):
        with pytest.raises(DeweyError):
            dw.parent_of((0,))

    def test_child_appends_ordinal(self):
        assert dw.child_of((0, 2), 3) == (0, 2, 3)

    def test_child_rejects_negative_ordinal(self):
        with pytest.raises(DeweyError):
            dw.child_of((0,), -1)

    def test_ancestors_nearest_first(self):
        assert dw.ancestors_of((0, 1, 2)) == [(0, 1), (0,)]

    def test_root_has_no_ancestors(self):
        assert dw.ancestors_of((0,)) == []

    def test_depth_of_root_is_zero(self):
        assert dw.depth_of((0,)) == 0
        assert dw.depth_of((0, 4, 4)) == 2


class TestOrderAndContainment:
    def test_ancestor_is_strict(self):
        assert dw.is_ancestor((0, 1), (0, 1, 2))
        assert not dw.is_ancestor((0, 1), (0, 1))
        assert not dw.is_ancestor((0, 1), (0, 2, 0))

    def test_ancestor_or_self_includes_self(self):
        assert dw.is_ancestor_or_self((0, 1), (0, 1))

    def test_document_order_is_tuple_order(self):
        # the paper's pre-order arrival: ancestors precede descendants,
        # left subtrees precede right subtrees
        order = [(0,), (0, 0), (0, 0, 0), (0, 1), (1,)]
        assert sorted(order) == order

    def test_common_prefix_is_lca(self):
        assert dw.common_prefix((0, 1, 2), (0, 1, 5)) == (0, 1)

    def test_common_prefix_across_documents_empty(self):
        assert dw.common_prefix((0, 1), (1, 1)) == ()

    def test_lca_of_many(self):
        assert dw.lca_of([(0, 1, 2), (0, 1, 3), (0, 1, 2, 9)]) == (0, 1)

    def test_lca_of_cross_document_fails(self):
        with pytest.raises(DeweyError):
            dw.lca_of([(0, 1), (1, 2)])

    def test_lca_of_empty_fails(self):
        with pytest.raises(DeweyError):
            dw.lca_of([])


class TestBlockLCP:
    def test_block_lcp_uses_first_and_last(self):
        # Lemma 6: sorted block → LCP(first, last) is the block's LCP
        block = [(0, 1, 0), (0, 1, 1), (0, 1, 2, 5)]
        assert dw.block_lcp(block) == (0, 1)

    def test_block_lcp_rejects_empty(self):
        with pytest.raises(DeweyError):
            dw.block_lcp([])

    def test_lemma6_exhaustively_on_small_blocks(self):
        import itertools

        ids = [(0, a, b) for a in range(3) for b in range(3)]
        for block in itertools.combinations(ids, 3):
            expected = dw.lca_of(block)
            assert dw.block_lcp(sorted(block)) == expected


class TestSubtreeInterval:
    def test_interval_contains_exactly_the_subtree(self):
        lo, hi = dw.subtree_interval((0, 2))
        inside = [(0, 2), (0, 2, 0), (0, 2, 9, 9)]
        outside = [(0, 1, 9), (0, 3), (1,), (0,)]
        for dewey in inside:
            assert lo <= dewey < hi
        for dewey in outside:
            assert not (lo <= dewey < hi)
