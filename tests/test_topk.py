"""Tests for top-k search: the head of the full ranking, for any ranker."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.baselines.ranking_models import xrank_ranker, xsearch_ranker
from repro.core.query import Query
from repro.core.ranking import rank_by_keyword_count, rank_node
from repro.core.search import search
from repro.core.topk import search_top_k
from repro.datasets.registry import load_dataset
from repro.index.builder import build_index
from repro.index.sharding import build_sharded_index
from repro.text.analyzer import Analyzer
from repro.xmltree.node import build_tree
from repro.xmltree.repository import Repository

KEYWORDS = ["alpha", "beta", "gamma"]
RANKERS = [rank_node, rank_by_keyword_count, xrank_ranker, xsearch_ranker]
ANALYZER = Analyzer(use_stemming=False)


@pytest.fixture(scope="module")
def dblp_index():
    return build_index(load_dataset("dblp"))


@pytest.fixture(scope="module")
def interpro_index():
    return build_index(load_dataset("interpro"))


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


def document_spec():
    leaf = st.tuples(st.sampled_from(["va", "vb"]),
                     st.sampled_from(KEYWORDS + ["x"]))
    return st.recursive(
        leaf,
        lambda children: st.tuples(st.sampled_from(["va", "vb"]),
                                   st.lists(children, min_size=1,
                                            max_size=3)),
        max_leaves=8,
    ).map(lambda spec: ("root", [spec]))


@settings(max_examples=120, deadline=None)
@given(documents=st.lists(document_spec(), min_size=1, max_size=3),
       keywords=st.lists(st.sampled_from(KEYWORDS), min_size=2,
                         max_size=3, unique=True),
       k=st.integers(min_value=1, max_value=4),
       ranker=st.sampled_from(RANKERS),
       shards=st.sampled_from([1, 2]))
def test_topk_is_head_of_full_ranking_for_every_ranker(documents, keywords,
                                                       k, ranker, shards):
    """No ranker contract: whatever a ranker scores, top-k is the head of
    the full ranking it produces, dewey and score."""
    repository = Repository()
    for spec in documents:
        repository.add_root(build_tree(spec))
    index = (build_index(repository, analyzer=ANALYZER) if shards == 1
             else build_sharded_index(repository, analyzer=ANALYZER,
                                      shards=shards))
    query = Query.of(keywords, s=1)
    full = search(index, query, ranker=ranker)
    top = search_top_k(index, query, k, ranker=ranker)
    assert [(node.dewey, node.score) for node in top] == \
        [(node.dewey, node.score) for node in full.nodes[:k]]
    assert top.stats.nodes_emitted == len(top)


class TestBehaviour:
    def test_invalid_k_rejected(self, figure1_index):
        with pytest.raises(ValueError):
            search_top_k(figure1_index, Query.of(["a"]), 0)

    def test_empty_result(self, figure1_index):
        top = search_top_k(figure1_index, Query.of(["zzz"]), 5)
        assert len(top) == 0

    def test_profile_populated(self, dblp_index):
        top = search_top_k(dblp_index, Query.of(["peter buneman"]), 2)
        assert top.stats.postings_scanned > 0
        assert top.stats.total_seconds >= 0

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
