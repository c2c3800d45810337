"""Tests for top-k search: exactness vs the full ranking + termination."""

import pytest

from repro.core.query import Query
from repro.core.ranking import rank_node
from repro.core.scatter import sharded_top_k
from repro.core.search import search
from repro.core.topk import distinct_keyword_count, search_top_k
from repro.datasets.registry import load_dataset
from repro.index.builder import build_index
from repro.index.sharding import build_sharded_index
from repro.xmltree.repository import Repository


@pytest.fixture(scope="module")
def dblp_index():
    return build_index(load_dataset("dblp"))


@pytest.fixture(scope="module")
def interpro_index():
    return build_index(load_dataset("interpro"))


class TestDistinctCount:
    def test_counts_match_search_results(self, figure1_index, fig1_ids):
        query = Query.of(["a", "b", "c", "d"], s=2)
        response = search(figure1_index, query)
        for node in response:
            assert distinct_keyword_count(figure1_index, query,
                                          node.dewey) == \
                node.distinct_keywords


class TestExactness:
    QUERIES = [
        (["a", "b", "c", "d"], 1, 2),
        (["a", "b", "c", "d"], 2, 3),
        (["a", "b"], 1, 1),
    ]

    @pytest.mark.parametrize("keywords,s,k", QUERIES)
    def test_topk_equals_head_of_full_ranking_figure1(self, figure1_index,
                                                      keywords, s, k):
        query = Query.of(keywords, s=s)
        full = search(figure1_index, query)
        top = search_top_k(figure1_index, query, k)
        assert top.deweys == full.deweys[:k]
        assert [node.score for node in top] == \
            [node.score for node in full][:k]

    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    def test_topk_equals_head_on_corpus(self, interpro_index, k):
        query = Query.of(["kringl", "domain"], s=1)
        full = search(interpro_index, query)
        top = search_top_k(interpro_index, query, k)
        expected = full.deweys[:k]
        assert top.deweys == expected

    def test_k_larger_than_response(self, figure1_index):
        query = Query.of(["a", "b"], s=2)
        full = search(figure1_index, query)
        top = search_top_k(figure1_index, query, 100)
        assert top.deweys == full.deweys

    def test_lce_flags_preserved(self, dblp_index):
        query = Query.of(["peter buneman"], s=1)
        full = search(dblp_index, query)
        top = search_top_k(dblp_index, query, 3)
        flags = {node.dewey: node.is_lce for node in full}
        for node in top:
            assert node.is_lce == flags[node.dewey]


class TestStopRuleOnTies:
    """Many candidates score exactly their ``P²`` bound (the keywords
    share one element, nothing dilutes the flow): once k of them are
    ranked, no later one — same bound, later in document order — can
    displace them, so ranking stops there."""

    K = 3
    QUERY = Query.of(["alpha", "beta"], s=2)

    @pytest.fixture(scope="class")
    def repository(self):
        book = "<book><title>alpha beta</title></book>"
        diluted = "<book><title>alpha</title><note>beta gamma</note></book>"
        return Repository.from_texts(
            [f"<shelf>{book * 4}{diluted}</shelf>"] * 3)

    @staticmethod
    def counting_ranker(calls):
        def ranker(index, query, dewey):
            calls.append(dewey)
            return rank_node(index, query, dewey)
        return ranker

    def check(self, repository, top_k):
        full = search(build_index(repository), self.QUERY)
        bound = float(len(self.QUERY.keywords) ** 2)
        assert sum(node.score == bound for node in full) > self.K
        calls = []
        top = top_k(self.K, self.counting_ranker(calls))
        assert len(calls) < len(full)
        assert [(node.dewey, node.score) for node in top] == \
            [(node.dewey, node.score) for node in full][:self.K]

    def test_monolithic(self, repository):
        index = build_index(repository)
        self.check(repository, lambda k, ranker: search_top_k(
            index, self.QUERY, k, ranker=ranker))

    def test_two_shards(self, repository):
        sharded = build_sharded_index(repository, shards=2)
        for entry_point in (sharded_top_k, search_top_k):
            self.check(repository, lambda k, ranker: entry_point(
                sharded, self.QUERY, k, ranker=ranker))

    def test_late_full_score_node_is_still_found(self):
        """The tie rule only ever stops on nodes *before* the remaining
        candidates: a full-score node late in the corpus is still found
        when the early ones fall short of their bound."""
        texts = ["<shelf><book><title>alpha</title><note>beta x</note>"
                 "</book></shelf>"] * 2
        texts.append("<shelf><book><title>alpha beta</title></book></shelf>")
        index = build_index(Repository.from_texts(texts))
        full = search(index, self.QUERY)
        top = search_top_k(index, self.QUERY, 1)
        assert top.deweys == full.deweys[:1] == [(2, 0)]


class TestBehaviour:
    def test_invalid_k_rejected(self, figure1_index):
        with pytest.raises(ValueError):
            search_top_k(figure1_index, Query.of(["a"]), 0)

    def test_empty_result(self, figure1_index):
        top = search_top_k(figure1_index, Query.of(["zzz"]), 5)
        assert len(top) == 0

    def test_profile_populated(self, dblp_index):
        top = search_top_k(dblp_index, Query.of(["peter buneman"]), 2)
        assert top.profile.merged_list_size > 0
        assert top.profile.seconds >= 0

    def test_scores_bounded_by_p_squared(self, interpro_index):
        query = Query.of(["kringl", "domain", "famili"], s=1)
        top = search_top_k(interpro_index, query, 20)
        for node in top:
            assert node.score <= node.distinct_keywords ** 2 + 1e-9

    def test_engine_facade(self):
        from repro.core.engine import GKSEngine

        engine = GKSEngine(load_dataset("figure2a"))
        top = engine.search_top_k("karen mike", k=2, s=1)
        full = engine.search("karen mike", s=1)
        assert top.deweys == full.deweys[:2]
