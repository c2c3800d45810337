"""Tests for target-type deduction and the FSLCA (MESSIAH-style)
baseline."""

import pytest

from repro.baselines.fslca import fslca
from repro.baselines.target_type import (deduce_target_type,
                                         entity_type_instances,
                                         score_types)
from repro.core.engine import GKSEngine
from repro.core.query import Query
from repro.datasets.registry import load_dataset


@pytest.fixture(scope="module")
def dblp():
    engine = GKSEngine(load_dataset("dblp"))
    return engine.repository, engine.index


@pytest.fixture(scope="module")
def mondial():
    engine = GKSEngine(load_dataset("mondial"))
    return engine.repository, engine.index


class TestEntityInstances:
    def test_instances_grouped_by_type(self, dblp):
        repository, _ = dblp
        instances = entity_type_instances(repository)
        assert ("dblp", "article") in instances
        assert ("dblp", "inproceedings") in instances
        for deweys in instances.values():
            assert deweys == sorted(deweys)

    def test_instance_counts_match_tree(self, dblp):
        repository, _ = dblp
        instances = entity_type_instances(repository)
        total = sum(len(deweys) for deweys in instances.values())
        # schema-level entity instances ≥ instance-level entities
        # (missing-element smoothing)
        assert total >= 300


class TestTargetType:
    def test_author_query_targets_bibliographic_type(self, dblp):
        repository, index = dblp
        query = Query.parse('"Peter Buneman" "Wenfei Fan"')
        target = deduce_target_type(repository, index, query)
        assert target is not None
        assert target.tag in ("article", "inproceedings")

    def test_country_query_targets_country(self, mondial):
        repository, index = mondial
        query = Query.parse("Muslim Buddhism population")
        target = deduce_target_type(repository, index, query)
        assert target is not None
        assert target.tag == "country"

    def test_unmatchable_query_returns_none(self, dblp):
        repository, index = dblp
        query = Query.of(["zzzzz", "qqqqq"])
        assert deduce_target_type(repository, index, query) is None

    def test_scores_sorted_descending(self, dblp):
        repository, index = dblp
        query = Query.parse('"E. F. Codd"')
        scores = score_types(index, query,
                             entity_type_instances(repository))
        values = [score.score for score in scores]
        assert values == sorted(values, reverse=True)


class TestFSLCA:
    def test_perfect_query_matches_target_instances(self, dblp):
        repository, index = dblp
        query = Query.parse(
            '"Dimitrios Georgakopoulos" "Marek Rusinkiewicz"')
        result = fslca(repository, index, query)
        assert result.target is not None
        assert len(result) == 10              # the planted joint articles
        assert result.forgiven_keywords == ()

    def test_missing_element_is_forgiven(self, mondial):
        repository, index = mondial
        # 'skyscraper' never occurs under <country>: a missing element
        query = Query.of(["muslim", "skyscraper"])
        result = fslca(repository, index, query)
        assert result.target is not None
        assert "skyscraper" in result.forgiven_keywords
        assert len(result) > 0                # Muslim countries returned

    def test_hopeless_query_returns_empty(self, dblp):
        repository, index = dblp
        result = fslca(repository, index, Query.of(["zzzzz"]))
        assert result.target is None
        assert len(result) == 0

    def test_nodes_are_target_type_instances(self, dblp):
        repository, index = dblp
        query = Query.parse('"Prithviraj Banerjee"')
        result = fslca(repository, index, query)
        assert result.target is not None
        for dewey in result:
            node = repository.node_at(dewey)
            assert node.tag == result.target.tag

    def test_gks_top_node_in_fslca_set(self, mondial):
        """§7.3: 'the top XML node for both QI1 and QI2 for GKS was
        present in FSLCA result set' — same shape on QM1."""
        repository, index = mondial
        engine = GKSEngine(repository, index=index)
        response = engine.search("country Muslim", s=2)
        result = fslca(repository, index,
                       engine.parse_query("country Muslim"))
        assert response[0].dewey in set(result.nodes)


class TestRankingModels:
    def test_xrank_and_xsearch_are_ranker_compatible(self, dblp):
        from repro.baselines.ranking_models import (xrank_ranker,
                                                    xsearch_ranker)
        from repro.core.search import search

        repository, index = dblp
        query = Query.parse('"Peter Buneman"')
        for ranker in (xrank_ranker, xsearch_ranker):
            response = search(index, query, ranker=ranker)
            assert len(response) > 0
            assert all(node.score > 0 for node in response)

    def test_xrank_decay_prefers_shallow_matches(self, figure1_index,
                                                 fig1_ids):
        from repro.baselines.ranking_models import xrank_ranker

        query = Query.of(["a", "b", "d"], s=2)
        x3 = xrank_ranker(figure1_index, query,
                          figure1_index.layout.pack(fig1_ids["x3"]))
        # a, b at distance 1 (decay^1), d at distance 2 (decay^2)
        assert x3.score == pytest.approx(0.85 + 0.85 + 0.85 ** 2)

    def test_custom_decay_factory(self, figure1_index, fig1_ids):
        from repro.baselines.ranking_models import make_xrank_ranker

        query = Query.of(["a"], s=1)
        strict = make_xrank_ranker(0.5)(
            figure1_index, query, figure1_index.layout.pack(fig1_ids["x3"]))
        assert strict.score == pytest.approx(0.5)

    def test_xsearch_idf_favours_rare_keywords(self, dblp):
        from repro.baselines.ranking_models import xsearch_ranker

        repository, index = dblp
        # one node containing a rare vs a frequent keyword
        rare_query = Query.parse('"Marek Rusinkiewicz"')
        articles = index.postings("marek rusinkiewicz")
        # the article element (ranker ids are packed)
        node = index.layout.pack(index.layout.unpack(articles[0])[:2])
        rare = xsearch_ranker(index, rare_query, node)
        common = xsearch_ranker(index, Query.of(["articl"]), node)
        # 'articl'... may not be present; fall back to a frequent tag
        frequent_kw = Query.of(["author"])
        common = xsearch_ranker(index, frequent_kw, node)
        assert rare.score > common.score
