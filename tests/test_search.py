"""End-to-end search tests pinning the paper's Table 1 and Example 3."""

import pytest

from repro.core.query import Query
from repro.core.search import search
from repro.errors import ConfigError


class TestTable1:
    """Fig. 1 queries Q1–Q3 with the thresholds of Table 1."""

    def test_q1_s3_returns_x2_only(self, figure1_index, fig1_ids):
        response = search(figure1_index, Query.of(["a", "b", "c"], s=3))
        assert response.deweys == [fig1_ids["x2"]]

    def test_q2_s2_returns_x2_then_x3(self, figure1_index, fig1_ids):
        response = search(figure1_index, Query.of(["a", "b", "e"], s=2))
        assert response.deweys == [fig1_ids["x2"], fig1_ids["x3"]]

    def test_q3_s2_returns_x2_x3_x4_ranked(self, figure1_index, fig1_ids):
        response = search(figure1_index,
                          Query.of(["a", "b", "c", "d"], s=2))
        assert response.deweys == [fig1_ids["x2"], fig1_ids["x3"],
                                   fig1_ids["x4"]]
        scores = [node.score for node in response]
        assert scores == pytest.approx([3.0, 2.5, 2.0])

    def test_q3_full_and_semantics_returns_root_region(self, figure1_index,
                                                       fig1_ids):
        # with s=|Q| GKS behaves like SLCA: only the root covers all four
        response = search(figure1_index,
                          Query.of(["a", "b", "c", "d"], s=4))
        assert response.deweys == [fig1_ids["r"]]

    def test_root_never_returned_when_deeper_nodes_match(self,
                                                         figure1_index,
                                                         fig1_ids):
        response = search(figure1_index, Query.of(["a", "b"], s=2))
        assert fig1_ids["r"] not in response.deweys
        assert fig1_ids["x1"] not in response.deweys  # ancestor of x2


class TestExample3:
    """Q4 = {student, karen, mike, john, harry}, s=2 over Fig. 2(a)."""

    def test_courses_returned_as_lce_nodes(self, figure2a_index):
        query = Query.of(["student", "karen", "mike", "john", "harri"],
                         s=2)
        response = search(figure2a_index, query)
        returned = set(response.deweys)
        assert {(0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 1, 2)} <= returned
        for node in response:
            if node.dewey in {(0, 1, 1, 0), (0, 1, 1, 1), (0, 1, 1, 2)}:
                assert node.is_lce

    def test_data_mining_course_ranks_first(self, figure2a_index):
        # the Data Mining course holds karen+mike+john+student tags
        query = Query.of(["student", "karen", "mike", "john", "harri"],
                         s=2)
        response = search(figure2a_index, query)
        assert response[0].dewey == (0, 1, 1, 0)

    def test_example3_perfect_query_exposes_course(self, figure2a_index):
        # §2.3: Q5 = {student, karen, mike, john} with s=|Q| — LCA gives
        # the <Students> holder; GKS's LCE is the Course
        query = Query.of(["student", "karen", "mike", "john"], s=4)
        response = search(figure2a_index, query)
        assert response[0].dewey == (0, 1, 1, 0)
        assert response[0].is_lce


class TestResponseShape:
    def test_profile_counts(self, figure1_index):
        response = search(figure1_index, Query.of(["a", "b"], s=2))
        assert response.stats.postings_scanned == 7  # 4×a + 3×b
        assert response.stats.total_seconds >= 0.0
        assert response.stats.lcp_entries >= len(response)

    def test_effective_s_is_clamped(self, figure1_index):
        response = search(figure1_index, Query.of(["a", "b"], s=99))
        assert response.query.s == 2

    def test_sorted_by_score_then_document_order(self, figure1_index):
        response = search(figure1_index, Query.of(["a", "b", "c", "d"],
                                                  s=1))
        keys = [(-node.score, -node.distinct_keywords, node.dewey)
                for node in response]
        assert keys == sorted(keys)

    def test_exact_distinct_counts(self, figure1_index, fig1_ids):
        response = search(figure1_index,
                          Query.of(["a", "b", "c", "d"], s=2))
        by_dewey = {node.dewey: node for node in response}
        assert by_dewey[fig1_ids["x2"]].distinct_keywords == 3
        assert by_dewey[fig1_ids["x4"]].distinct_keywords == 2

    def test_no_results_for_absent_keywords(self, figure1_index):
        response = search(figure1_index, Query.of(["zzz", "qqq"], s=1))
        assert len(response) == 0

    def test_monotone_result_counts_in_s(self, figure1_index):
        # Lemma 2's shape: raising s cannot grow the response
        query = Query.of(["a", "b", "c", "d"])
        sizes = [len(search(figure1_index, query.with_s(s)))
                 for s in (1, 2, 3, 4)]
        assert sizes == sorted(sizes, reverse=True)

    def test_top_slices_ranked_list(self, figure1_index):
        response = search(figure1_index, Query.of(["a", "b", "c", "d"],
                                                  s=2))
        assert list(response.top(2)) == list(response.nodes[:2])

    @pytest.mark.parametrize("count", [0, -1])
    def test_top_rejects_a_count_below_one(self, figure1_index, count):
        response = search(figure1_index, Query.of(["a", "b"]))
        assert len(response) > 1
        with pytest.raises(ConfigError, match="count must be positive"):
            response.top(count)

    def test_max_distinct_and_true_nodes(self, figure1_index, fig1_ids):
        response = search(figure1_index,
                          Query.of(["a", "b", "c", "d"], s=2))
        assert response.max_distinct_keywords() == 3
        true_nodes = {node.dewey
                      for node in response.nodes_with_max_keywords()}
        assert true_nodes == {fig1_ids["x2"], fig1_ids["x3"]}
