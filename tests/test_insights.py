"""Unit tests for DI discovery (paper §2.3, §6.2) and refinement (§6.1)."""

import pytest

from repro.core.insights import attribute_nodes_of, discover_insights
from repro.core.query import Query
from repro.core.refinement import (RefinementKind, suggest,
                                   suggest_expansions, suggest_subsets)
from repro.core.search import search
from repro.errors import ConfigError


class TestAttributeExtraction:
    def test_strict_mode_takes_attributes_only(self, figure2a_repo):
        course = figure2a_repo.node_at((0, 1, 1, 0))
        values = [node.text
                  for node in attribute_nodes_of(course,
                                                 mode="attributes")]
        assert values == ["Data Mining"]

    def test_context_mode_includes_repeating_leaves(self, figure2a_repo):
        course = figure2a_repo.node_at((0, 1, 1, 0))
        values = {node.text
                  for node in attribute_nodes_of(course, mode="context")}
        assert "Data Mining" in values
        assert "Karen" in values  # students are part of the course context

    def test_context_mode_stops_at_nested_entities(self, figure2a_repo):
        area = figure2a_repo.node_at((0, 1))
        values = {node.text
                  for node in attribute_nodes_of(area, mode="context")}
        assert values == {"Databases"}  # Course contents belong to Courses

    def test_unknown_mode_rejected(self, figure2a_repo):
        with pytest.raises(ValueError):
            attribute_nodes_of(figure2a_repo.node_at((0,)), mode="bogus")


class TestDIDiscovery:
    """§2.3: Q5 = {student, karen, mike, john} exposes 'Data Mining'."""

    def run(self, repo, index, keywords, s, **kwargs):
        response = search(index, Query.of(keywords, s=s))
        return discover_insights(repo, response, **kwargs), response

    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one_is_rejected(self, figure2a_repo, figure2a_index,
                                       top):
        with pytest.raises(ConfigError, match="top must be positive"):
            self.run(figure2a_repo, figure2a_index,
                     ["student", "karen", "mike", "john"], 4, top=top)

    def test_q5_exposes_data_mining(self, figure2a_repo, figure2a_index):
        report, _ = self.run(figure2a_repo, figure2a_index,
                             ["student", "karen", "mike", "john"], 4)
        rendered = [insight.render() for insight in report]
        assert any("Data Mining" in text for text in rendered)

    def test_example3_weighted_set(self, figure2a_repo, figure2a_index):
        # §2.3: Sw_Q over Q4's LCE nodes contains the course names
        report, _ = self.run(figure2a_repo, figure2a_index,
                             ["student", "karen", "mike", "john", "harri"],
                             2, mode="attributes")
        keywords = set(report.weighted_keywords)
        assert {"data", "mine", "algorithm", "ai"} <= keywords

    def test_query_keywords_excluded(self, figure2a_repo, figure2a_index):
        report, _ = self.run(figure2a_repo, figure2a_index,
                             ["karen", "mike"], 1)
        assert "karen" not in report.weighted_keywords
        assert "mike" not in report.weighted_keywords

    def test_weights_aggregate_over_lce_nodes(self, figure2a_repo,
                                              figure2a_index):
        # 'karen' is in 3 courses; a 2-course keyword must weigh less
        report, response = self.run(figure2a_repo, figure2a_index,
                                    ["student"], 1)
        weights = report.weighted_keywords
        assert weights["karen"] > weights["serena"]

    def test_semantics_path_from_lce(self, figure2a_repo, figure2a_index):
        report, _ = self.run(figure2a_repo, figure2a_index,
                             ["karen", "mike", "john"], 2,
                             mode="attributes")
        for insight in report:
            assert insight.path[0] == "Course"
            assert insight.path[-1] == "Name"

    def test_top_limits_report_size(self, figure2a_repo, figure2a_index):
        report, _ = self.run(figure2a_repo, figure2a_index, ["student"],
                             1, top=2)
        assert len(report) == 2

    def test_no_lce_nodes_no_insights(self, figure1_repo, figure1_index):
        response = search(figure1_index, Query.of(["a", "b"], s=2))
        report = discover_insights(figure1_repo, response)
        assert len(report) == 0

    def test_top_keywords_ordering(self, figure2a_repo, figure2a_index):
        report, _ = self.run(figure2a_repo, figure2a_index, ["student"], 1)
        top = report.top_keywords(3)
        weights = report.weighted_keywords
        assert weights[top[0]] >= weights[top[1]] >= weights[top[2]]


class TestRecursiveDI:
    def test_rounds_produce_reports(self, figure2a_repo, figure2a_index):
        from repro.core.insights import discover_recursive

        response = search(figure2a_index, Query.of(["karen", "mike"], s=1))
        reports = discover_recursive(figure2a_repo, figure2a_index,
                                     response, rounds=1)
        assert len(reports) == 2
        assert all(hasattr(report, "weighted_keywords")
                   for report in reports)


class TestRefinement:
    def make_response(self, index):
        return search(index, Query.of(["a", "b", "c", "d"], s=2))

    def test_q3_subset_suggestions_match_example1(self, figure1_index):
        # §6.1: Q3 = {a,b,c,d} refines to {a,b,c} and {a,b,d}
        response = self.make_response(figure1_index)
        subsets = suggest_subsets(response)
        keyword_sets = [set(refinement.keywords)
                        for refinement in subsets]
        assert {"a", "b", "c"} in keyword_sets
        assert {"a", "b", "d"} in keyword_sets

    def test_subsets_exclude_full_query(self, figure1_index):
        response = self.make_response(figure1_index)
        for refinement in suggest_subsets(response):
            assert set(refinement.keywords) != {"a", "b", "c", "d"}

    def test_subset_support_orders_suggestions(self, figure1_index):
        response = self.make_response(figure1_index)
        supports = [refinement.support
                    for refinement in suggest_subsets(response)]
        assert supports == sorted(supports, reverse=True)

    def test_expansions_add_di_keywords(self, figure2a_repo,
                                        figure2a_index):
        response = search(figure2a_index,
                          Query.of(["karen", "mike"], s=1))
        report = discover_insights(figure2a_repo, response)
        expansions = suggest_expansions(response, report, top=3)
        for refinement in expansions:
            assert refinement.kind is RefinementKind.EXPANSION
            assert set(response.query.keywords) < set(refinement.keywords)

    def test_combined_suggest(self, figure2a_repo, figure2a_index):
        response = search(figure2a_index,
                          Query.of(["karen", "mike", "zzz"], s=1))
        report = discover_insights(figure2a_repo, response)
        combined = suggest(response, report, top=3)
        kinds = {refinement.kind for refinement in combined}
        assert RefinementKind.EXPANSION in kinds

    def test_refinement_as_query(self, figure1_index):
        response = self.make_response(figure1_index)
        refinement = suggest_subsets(response)[0]
        query = refinement.as_query()
        assert query.keywords == refinement.keywords
        assert query.s == len(refinement.keywords)
