"""Unit tests for the node categorization model (paper §2.2).

The Figure 2(a) examples are normative: every assertion here traces to a
sentence in the paper.
"""

from repro.datasets.toy import figure2a
from repro.index.builder import build_index
from repro.index.categorize import (CATEGORIES, CategoryRecord,
                                    NodeCategory, categorize_tree,
                                    close_element, close_root)
from repro.xmltree.node import build_tree
from repro.xmltree.parser import stream_document
from repro.xmltree.serialize import serialize_node
from tests.conftest import unpacked


def categories_by_path(root):
    records = categorize_tree(root)
    return {
        "/".join(node.tag_path()): records[node.dewey]
        for node in root.iter_subtree()
    }


class TestFigure2a:
    def test_paper_examples(self):
        root = figure2a()
        records = categorize_tree(root)
        by_dewey = {node.dewey: records[node.dewey]
                    for node in root.iter_subtree()}
        # "<Name> (n0.1.0) is an attribute node"
        assert by_dewey[(0, 1, 0)].category is NodeCategory.ATTRIBUTE
        # "nodes with label <Student> are repeating nodes"
        assert by_dewey[(0, 1, 1, 0, 1, 0)].category is NodeCategory.REPEATING
        # "<Area> (n0.1) is an entity node"
        assert by_dewey[(0, 1)].category is NodeCategory.ENTITY
        # "<Course> nodes are the entity nodes" — and also repeating
        course = by_dewey[(0, 1, 1, 0)]
        assert course.category is NodeCategory.ENTITY
        assert course.is_repeating
        # "<Courses> (n0.1.1) is a connecting node"
        assert by_dewey[(0, 1, 1)].category is NodeCategory.CONNECTING

    def test_child_counts_recorded(self):
        root = figure2a()
        records = categorize_tree(root)
        assert records[(0, 1)].child_count == 2       # Name + Courses
        assert records[(0, 1, 1)].child_count == 3    # three Courses


class TestRules:
    def test_leaf_with_text_and_no_sibling_is_attribute(self):
        root = build_tree(("r", [("a", "x"), ("b", "y")]))
        records = categorize_tree(root)
        assert records[(0, 0)].category is NodeCategory.ATTRIBUTE
        assert records[(0, 1)].category is NodeCategory.ATTRIBUTE

    def test_text_leaf_with_same_label_sibling_is_repeating(self):
        # §2.2: "A node that directly contains its value and also has
        # siblings with the same XML tag is considered a repeating node"
        root = build_tree(("r", [("a", "x"), ("a", "y")]))
        records = categorize_tree(root)
        assert records[(0, 0)].category is NodeCategory.REPEATING
        assert records[(0, 1)].category is NodeCategory.REPEATING

    def test_entity_needs_attribute_and_repetition(self):
        root = build_tree(("r", [("name", "x"), ("item", "1"),
                                 ("item", "2")]))
        assert categorize_tree(root)[(0,)].category is NodeCategory.ENTITY

    def test_repetition_without_attribute_is_not_entity(self):
        root = build_tree(("r", [("item", "1"), ("item", "2")]))
        assert categorize_tree(root)[(0,)].category is \
            NodeCategory.CONNECTING

    def test_attribute_without_repetition_is_not_entity(self):
        # the paper: a <Course> with a single student would be a
        # connecting node, not an entity node (§2.2)
        root = build_tree(("Course", [
            ("Name", "Data Mining"),
            ("Students", [("Student", "Karen")]),
        ]))
        records = categorize_tree(root)
        assert records[(0,)].category is NodeCategory.CONNECTING
        # ... and its lone student is an attribute node
        assert records[(0, 1, 0)].category is NodeCategory.ATTRIBUTE

    def test_attribute_inside_repeating_node_does_not_qualify(self):
        # attributes inside a repeating node describe that repetition;
        # r has no attribute of its own → not an entity
        root = build_tree(("r", [
            ("item", [("name", "a"), ("x", "1")]),
            ("item", [("name", "b"), ("x", "2")]),
        ]))
        assert categorize_tree(root)[(0,)].category is \
            NodeCategory.CONNECTING

    def test_deep_repeating_group_with_separate_attribute(self):
        # <Area>-like: attribute under one child, repetition under another
        root = build_tree(("area", [
            ("name", "db"),
            ("courses", [("course", "a"), ("course", "b")]),
        ]))
        records = categorize_tree(root)
        assert records[(0,)].category is NodeCategory.ENTITY
        assert records[(0, 1)].category is NodeCategory.CONNECTING

    def test_attribute_and_group_under_same_child_is_not_entity(self):
        # LCA(attr, group) is the child, not the root → child is the entity
        root = build_tree(("r", [
            ("wrap", [("name", "x"), ("item", "1"), ("item", "2")]),
        ]))
        records = categorize_tree(root)
        assert records[(0,)].category is NodeCategory.CONNECTING
        assert records[(0, 0)].category is NodeCategory.ENTITY

    def test_empty_leaf_is_connecting(self):
        root = build_tree(("r", [("a",)]))
        assert categorize_tree(root)[(0, 0)].category is \
            NodeCategory.CONNECTING

    def test_dual_role_entity_and_repeating(self):
        root = build_tree(("r", [
            ("course", [("name", "a"), ("s", "1"), ("s", "2")]),
            ("course", [("name", "b"), ("s", "3"), ("s", "4")]),
        ]))
        records = categorize_tree(root)
        course = records[(0, 0)]
        assert course.category is NodeCategory.ENTITY
        assert course.is_repeating


class TestStreamingEquivalence:
    def test_streaming_matches_tree_walk(self):
        # The parser's element stream of the serialised tree, through the
        # one rule, files exactly what categorize_tree records — and the
        # index builder's hash tables hold those rows, in that order.
        root = figure2a()
        text = serialize_node(root)
        pending, marks, streamed = [], [], {}

        def file(tag, dewey, child_count, category, repeated):
            streamed[dewey] = CategoryRecord(dewey, tag, CATEGORIES[category],
                                             repeated, child_count)

        def start(dewey, tag):
            marks.append(len(pending))

        def end(dewey, tag, text):
            close_element(pending, marks.pop(), tag, dewey,
                          bool(text and text.strip()), file)

        stream_document(text, start, end)
        close_root(pending, file)
        records = categorize_tree(root)
        assert streamed == records
        assert list(streamed) == list(records)
        index = build_index(text)
        assert unpacked(index, index.hashes.entity_table) == {
            dewey: record.child_count for dewey, record in records.items()
            if record.category is NodeCategory.ENTITY}
        assert list(unpacked(index, index.hashes.element_table)) == [
            dewey for dewey, record in records.items()
            if record.category in (NodeCategory.REPEATING,
                                   NodeCategory.CONNECTING)
            or (record.category is NodeCategory.ENTITY
                and record.is_repeating)]

    def test_records_emitted_once_per_node(self):
        root = figure2a()
        assert len(categorize_tree(root)) == \
            sum(1 for _ in root.iter_subtree())
