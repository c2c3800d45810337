"""Unit tests for Dewey-id algebra (paper §2.1)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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


# ---------------------------------------------------------------------------
# DeweyLayout: the packing keeps order, prefixes and intervals
# ---------------------------------------------------------------------------
COMPONENT = st.integers(min_value=0, max_value=40)
DEWEY = st.builds(lambda doc, path: (doc,) + tuple(path),
                  st.integers(min_value=0, max_value=9),
                  st.lists(COMPONENT, max_size=5))
DEWEY_SETS = st.lists(DEWEY, min_size=1, max_size=30)


def _descendants(deweys):
    """*deweys* plus every prefix, so ancestors are in the set too."""
    closed = set()
    for dewey in deweys:
        for length in range(1, len(dewey) + 1):
            closed.add(dewey[:length])
    return sorted(closed)


class TestDeweyLayout:
    @settings(max_examples=200, deadline=None)
    @given(DEWEY_SETS)
    def test_pack_order_is_tuple_order_and_unpack_inverts(self, deweys):
        layout = dw.DeweyLayout.covering(deweys)
        packed = [layout.pack(dewey) for dewey in deweys]
        assert [layout.unpack(value) for value in packed] == deweys
        assert sorted(deweys) == [layout.unpack(value)
                                  for value in sorted(packed)]
        for dewey, value in zip(deweys, packed):
            assert layout.depth(value) == len(dewey) - 1
            assert value >> layout.inner_bits == dewey[0]
            assert layout.format(value) == dw.format_dewey(dewey)
            assert layout.parse(dw.format_dewey(dewey)) == value

    @settings(max_examples=200, deadline=None)
    @given(DEWEY_SETS)
    def test_ancestor_mask_and_subtree_interval(self, deweys):
        nodes = _descendants(deweys)
        layout = dw.DeweyLayout.covering(nodes)
        packed = {dewey: layout.pack(dewey) for dewey in nodes}
        for dewey, value in packed.items():
            for level in range(len(dewey)):
                assert value & layout.masks[level] == \
                    packed[dewey[:level + 1]]
            if len(dewey) > 1:
                lowest = (value & -value).bit_length()
                assert value & layout.lcp_masks[lowest] == \
                    packed[dewey[:-1]]
            end = layout.subtree_end(value)
            for other, other_value in packed.items():
                assert (value <= other_value < end) == \
                    dw.is_ancestor_or_self(dewey, other)

    @settings(max_examples=200, deadline=None)
    @given(DEWEY_SETS)
    def test_xor_bit_length_lcp_is_common_prefix(self, deweys):
        layout = dw.DeweyLayout.covering(deweys)
        for a in deweys:
            for b in deweys:
                prefix = layout.common_prefix(layout.pack(a), layout.pack(b))
                expected = dw.common_prefix(a, b)
                if not expected:
                    assert prefix is None
                else:
                    assert layout.unpack(prefix) == expected

    @settings(max_examples=100, deadline=None)
    @given(DEWEY_SETS, st.lists(st.integers(min_value=0, max_value=3),
                                max_size=7))
    def test_repacking_under_grown_widths_keeps_order(self, deweys, extra):
        layout = dw.DeweyLayout.covering(deweys)
        grown = dw.DeweyLayout(
            [width + (extra[level] if level < len(extra) else 0)
             for level, width in enumerate(layout.widths)]
            + [1 + bits for bits in extra[len(layout.widths):]])
        assert grown.contains(layout) and grown.union(layout) == grown
        move = grown.converter(layout)
        packed = sorted(map(layout.pack, deweys))
        moved = list(map(move, packed))
        assert moved == sorted(moved)
        assert list(map(grown.unpack, moved)) == \
            list(map(layout.unpack, packed))

    def test_component_at_its_width_limit(self):
        layout = dw.DeweyLayout([3])
        assert layout.unpack(layout.pack((0, 6))) == (0, 6)  # 6 + 1 = 7
        assert layout.pack((0, 5)) < layout.pack((0, 6)) < layout.pack((1,))
        with pytest.raises(DeweyError):
            layout.pack((0, 7))
        with pytest.raises(DeweyError):
            layout.parse("0.7")

    def test_a_new_deeper_level(self):
        layout = dw.DeweyLayout([2])
        with pytest.raises(DeweyError):
            layout.pack((0, 1, 0))
        deeper = layout.union(dw.DeweyLayout([1, 2]))
        assert deeper.widths == (2, 2)
        move = deeper.converter(layout)
        assert move(layout.pack((0, 1))) == deeper.pack((0, 1))
        assert deeper.pack((0, 1)) < deeper.pack((0, 1, 0)) \
            < deeper.pack((0, 2))

    def test_document_numbers_past_one_digit(self):
        layout = dw.DeweyLayout([10, 10, 9])
        for doc in (0, 1, 2 ** (30 - 29), 2 ** 40 + 3):
            value = layout.pack((doc, 5, 0, 7))
            assert layout.unpack(value) == (doc, 5, 0, 7)
            assert value >> layout.inner_bits == doc
            assert layout.depth(layout.pack((doc,))) == 0
        far = layout.pack((2 ** 40, 1))
        assert layout.common_prefix(far, layout.pack((2 ** 40 + 1, 1))) \
            is None
        assert layout.common_prefix(far, layout.pack((2 ** 40, 1, 2))) == far

    def test_malformed_text_and_bad_widths(self):
        layout = dw.DeweyLayout([4, 4])
        for text in ("", "0..1", "0.x", "-1.2", "0.-3", "0.1.2.3"):
            with pytest.raises(DeweyError):
                layout.parse(text)
        with pytest.raises(DeweyError):
            dw.DeweyLayout([3, 0])
