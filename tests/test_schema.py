"""Tests for schema inference and schema-level categorization."""

import pytest

from repro.core.engine import GKSEngine
from repro.core.query import Query
from repro.core.search import search
from repro.datasets.registry import load_dataset
from repro.datasets.toy import figure2a
from repro.index.builder import build_index
from repro.index.categorize import NodeCategory
from repro.schema import (build_schema_index, categorize_by_schema,
                          categorize_schema, compare_with_instance_level,
                          infer_schema)
from repro.xmltree.node import build_tree
from repro.xmltree.repository import Repository


@pytest.fixture(scope="module")
def fig2a_schema():
    repo = Repository()
    repo.add_root(figure2a())
    return repo, infer_schema(repo)


class TestInference:
    def test_types_keyed_by_tag_path(self, fig2a_schema):
        _, schema = fig2a_schema
        course = schema.type_of(("Dept", "Area", "Courses", "Course"))
        assert course is not None
        assert course.occurrences == 5
        assert course.tag == "Course"

    def test_child_multiplicities(self, fig2a_schema):
        _, schema = fig2a_schema
        students = schema.type_of(
            ("Dept", "Area", "Courses", "Course", "Students"))
        low, high = students.child_multiplicity["Student"]
        assert low >= 1 and high == 4
        assert students.is_repeatable_child("Student")

    def test_optional_children_detected(self):
        root = build_tree(("r", [
            ("item", [("name", "a"), ("extra", "x")]),
            ("item", [("name", "b")]),
        ]))
        schema = infer_schema(root)
        item = schema.type_of(("r", "item"))
        assert item.child_multiplicity["extra"] == (0, 1)
        assert item.child_multiplicity["name"] == (1, 1)
        assert item.content_model() == "(extra?, name)"

    def test_content_model_rendering(self, fig2a_schema):
        _, schema = fig2a_schema
        students = schema.type_of(
            ("Dept", "Area", "Courses", "Course", "Students"))
        assert students.content_model() == "(Student+)"
        name = schema.type_of(
            ("Dept", "Area", "Courses", "Course", "Name"))
        assert name.content_model() == "(#PCDATA)"

    def test_render_lists_every_type(self, fig2a_schema):
        _, schema = fig2a_schema
        text = schema.render()
        assert text.count("\n") + 1 == len(schema)

    def test_same_tag_in_different_contexts(self):
        # <name> under country vs under city are distinct types
        root = build_tree(("r", [
            ("country", [("name", "Laos"), ("city", [("name", "V")]),
                         ("city", [("name", "W")])]),
        ]))
        schema = infer_schema(root)
        assert schema.type_of(("r", "country", "name")) is not None
        assert schema.type_of(("r", "country", "city", "name")) \
            is not None


class TestSchemaCategorization:
    def test_figure2a_types_match_instance_categories(self, fig2a_schema):
        repo, schema = fig2a_schema
        categories = categorize_schema(schema)
        course = categories[("Dept", "Area", "Courses", "Course")]
        assert course.category is NodeCategory.ENTITY
        assert course.is_repeating
        students = categories[
            ("Dept", "Area", "Courses", "Course", "Students")]
        assert students.category is NodeCategory.CONNECTING
        student = categories[
            ("Dept", "Area", "Courses", "Course", "Students", "Student")]
        assert student.category is NodeCategory.REPEATING

    def test_missing_element_smoothing(self):
        # second record has a single author: instance-level CN/RN,
        # schema-level still an entity
        root = build_tree(("dblp", [
            ("article", [("title", "x"), ("author", "a"),
                         ("author", "b")]),
            ("article", [("title", "y"), ("author", "c")]),
        ]))
        repo = Repository()
        repo.add_root(root)
        by_schema = categorize_by_schema(repo)
        assert by_schema[(0, 0)].category is NodeCategory.ENTITY
        assert by_schema[(0, 1)].category is NodeCategory.ENTITY
        from repro.index.categorize import categorize_tree

        by_instance = categorize_tree(root)
        assert by_instance[(0, 1)].category is not NodeCategory.ENTITY

    def test_comparison_counters(self):
        repo = load_dataset("dblp")
        counters = compare_with_instance_level(repo)
        assert counters["total"] > 0
        assert counters["agree"] / counters["total"] > 0.9
        assert counters["promoted_to_entity"] > 0  # 1-author entries


class TestSchemaIndex:
    def test_single_author_article_becomes_lce(self):
        root = build_tree(("dblp", [
            ("article", [("title", "alpha"), ("author", "karen"),
                         ("author", "mike")]),
            ("article", [("title", "beta"), ("author", "zoe")]),
        ]))
        repo = Repository()
        repo.add_root(root)

        instance_engine = GKSEngine(repo)
        schema_index = build_schema_index(repo)

        query = Query.of(["zoe"], s=1)
        instance_response = search(instance_engine.index, query)
        schema_response = search(schema_index, query)

        # instance level: the 1-author article is not an entity, so the
        # match is not an LCE node; schema level: it is.
        assert not any(node.is_lce and node.dewey == (0, 1)
                       for node in instance_response)
        assert any(node.is_lce and node.dewey == (0, 1)
                   for node in schema_response)

    def test_schema_index_searches_like_instance_index(self):
        repo = load_dataset("figure2a")
        instance_index = build_index(repo)
        schema_index = build_schema_index(repo)
        query = Query.of(["karen", "mike"], s=2)
        assert search(schema_index, query).deweys == \
            search(instance_index, query).deweys

    def test_schema_index_entity_count_stat(self):
        repo = load_dataset("dblp")
        schema_index = build_schema_index(repo)
        instance_index = build_index(repo)
        assert schema_index.stats.entity_nodes >= \
            instance_index.stats.entity_nodes
