"""Unit tests for the XML tree node model."""

import pytest

from repro.xmltree.node import XMLNode, build_tree


@pytest.fixture
def small_tree() -> XMLNode:
    return build_tree(("r", [
        ("a", "hello", [("b", "world")]),
        ("a", [("c",)]),
        ("d", "leaf"),
    ]))


class TestConstruction:
    def test_add_child_assigns_next_ordinal(self):
        root = XMLNode("r", (0,))
        first = root.add_child("a")
        second = root.add_child("b")
        assert first.dewey == (0, 0)
        assert second.dewey == (0, 1)
        assert second.parent is root

    def test_build_tree_spec_variants(self, small_tree):
        assert small_tree.tag == "r"
        assert small_tree.children[0].text == "hello"
        assert small_tree.children[0].children[0].tag == "b"
        assert small_tree.children[1].children[0].is_leaf


class TestStructureQueries:
    def test_iter_subtree_is_document_order(self, small_tree):
        deweys = [node.dewey for node in small_tree.iter_subtree()]
        assert deweys == sorted(deweys)
        assert deweys[0] == (0,)

    def test_iter_ancestors_nearest_first(self, small_tree):
        leaf = small_tree.children[0].children[0]
        tags = [node.tag for node in leaf.iter_ancestors()]
        assert tags == ["a", "r"]

    def test_find_first_and_all(self, small_tree):
        assert small_tree.find_first("b").dewey == (0, 0, 0)
        assert small_tree.find_first("nope") is None

    def test_path_from_ancestor(self, small_tree):
        leaf = small_tree.children[0].children[0]
        path = leaf.path_from(small_tree)
        assert [node.tag for node in path] == ["r", "a", "b"]

    def test_path_from_non_ancestor_fails(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.children[0].path_from(small_tree.children[1])

    def test_tag_path_from_root(self, small_tree):
        leaf = small_tree.children[0].children[0]
        assert leaf.tag_path() == ["r", "a", "b"]

    def test_same_label_sibling_count(self, small_tree):
        first_a, second_a, d = small_tree.children
        assert first_a.same_label_sibling_count() == 1
        assert second_a.same_label_sibling_count() == 1
        assert d.same_label_sibling_count() == 0
        assert small_tree.same_label_sibling_count() == 0  # root

    def test_depth_property(self, small_tree):
        assert small_tree.depth == 0
        assert small_tree.children[0].children[0].depth == 2


class TestContent:
    def test_subtree_text_concatenates_in_order(self, small_tree):
        assert small_tree.subtree_text() == "hello world leaf"

    def test_has_text_ignores_whitespace(self):
        node = XMLNode("a", (0,), text="   ")
        assert not node.has_text

    def test_equality_and_hash_by_dewey(self):
        one = XMLNode("a", (0, 1))
        two = XMLNode("a", (0, 1))
        other = XMLNode("a", (0, 2))
        assert one == two
        assert hash(one) == hash(two)
        assert one != other
