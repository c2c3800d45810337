"""Unit tests for potential-flow ranking (paper §5, Example 5)."""

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.api import EngineConfig, GKSEngine, Texts
from repro.core.lce import discover_lce
from repro.core.lcp import compute_lcp_list
from repro.core.merge import merged_list
from repro.core.query import Query
from repro.core.ranking import (RankBreakdown, keyword_occurrences,
                                rank_by_keyword_count, rank_node,
                                received_potential, terminal_points)
from repro.core.results import RankedNode
from repro.core.search import search
from repro.index.builder import build_index
from repro.index.composite import CompositeIndex
from repro.index.sharding import build_sharded_index
from repro.index.storage import load_index, save_index
from repro.xmltree.dewey import DeweyLayout
from repro.xmltree.repository import Repository


def rank(index, query, dewey, ranker=rank_node):
    """*ranker* on the Dewey tuple *dewey* (rankers take packed ids)."""
    return ranker(index, query, index.layout.pack(dewey))


class TestTerminalPoints:
    LAYOUT = DeweyLayout([3, 3])

    def points(self, deweys):
        layout = self.LAYOUT
        return tuple(map(layout.unpack, terminal_points(
            list(map(layout.pack, deweys)), layout)))

    def test_highest_occurrence_only(self):
        points = self.points([(0, 1), (0, 2, 5), (0, 3)])
        assert points == ((0, 1), (0, 3))  # depth-1 beats depth-2

    def test_multiple_at_highest_level_all_count(self):
        points = self.points([(0, 1), (0, 2)])
        assert len(points) == 2

    def test_empty(self):
        assert terminal_points([], self.LAYOUT) == ()


class TestReceivedPotential:
    def test_terminal_at_root_receives_everything(self, figure1_index):
        assert received_potential(figure1_index, (0, 1), (0, 1), 3.0) == 3.0

    def test_division_along_path(self, figure1_index, fig1_ids):
        # x3 has 3 children; y (inside x3) has 2: potential 3 at x3
        # arriving at y's child d = 3 · (1/3) · (1/2) = 0.5
        x3, y = fig1_ids["x3"], fig1_ids["y"]
        d_leaf = y + (0,)
        assert received_potential(figure1_index, x3, d_leaf, 3.0) == \
            pytest.approx(0.5)


class TestExample5:
    """Q3 = {a, b, c, d}: rank(x2)=3, rank(x3)=2.5, rank(x4)=2."""

    QUERY = Query.of(["a", "b", "c", "d"], s=2)

    def test_x2_rank(self, figure1_index, fig1_ids):
        breakdown = rank(figure1_index, self.QUERY, fig1_ids["x2"])
        assert breakdown.score == pytest.approx(3.0)
        assert breakdown.initial_potential == 3

    def test_x3_rank(self, figure1_index, fig1_ids):
        breakdown = rank(figure1_index, self.QUERY, fig1_ids["x3"])
        assert breakdown.score == pytest.approx(2.5)

    def test_x4_rank(self, figure1_index, fig1_ids):
        breakdown = rank(figure1_index, self.QUERY, fig1_ids["x4"])
        assert breakdown.score == pytest.approx(2.0)

    def test_order_matches_paper(self, figure1_index, fig1_ids):
        scores = {
            name: rank(figure1_index, self.QUERY, fig1_ids[name]).score
            for name in ("x2", "x3", "x4")
        }
        assert scores["x2"] > scores["x3"] > scores["x4"]


class TestBreakdowns:
    def test_matched_keywords_recorded(self, figure1_index, fig1_ids):
        query = Query.of(["a", "b", "c", "d"])
        breakdown = rank(figure1_index, query, fig1_ids["x3"])
        assert set(breakdown.matched_keywords) == {"a", "b", "d"}
        assert breakdown.distinct_keywords == 3

    def test_absent_keywords_do_not_contribute(self, figure1_index,
                                               fig1_ids):
        query = Query.of(["a", "zzz"])
        breakdown = rank(figure1_index, query, fig1_ids["x2"])
        assert breakdown.initial_potential == 1
        assert "zzz" not in breakdown.terminals

    def test_node_without_keywords_scores_zero(self, figure1_index,
                                               fig1_ids):
        query = Query.of(["zzz"])
        breakdown = rank(figure1_index, query, fig1_ids["x2"])
        assert breakdown.score == 0.0

    def test_rank_is_positive_when_keywords_present(self, figure1_index,
                                                    fig1_ids):
        query = Query.of(["a"])
        assert rank(figure1_index, query, fig1_ids["x1"]).score > 0


class TestKeywordCountBaseline:
    def test_count_ranker_ignores_structure(self, figure1_index, fig1_ids):
        query = Query.of(["a", "b", "c", "d"], s=2)
        x3 = rank(figure1_index, query, fig1_ids["x3"],
                 rank_by_keyword_count)
        x2 = rank(figure1_index, query, fig1_ids["x2"],
                 rank_by_keyword_count)
        assert x3.score == x2.score == 3.0  # both match 3 keywords

    def test_count_ranker_terminals_match_flow_ranker(self, figure1_index,
                                                      fig1_ids):
        query = Query.of(["a", "b"])
        flow = rank(figure1_index, query, fig1_ids["x3"])
        count = rank(figure1_index, query, fig1_ids["x3"],
                 rank_by_keyword_count)
        assert flow.terminals == count.terminals


def composed_rank(index, query, dewey):
    """``rank_node`` spelled with the readable single-purpose helpers:
    the reference its one-loop form is held to (*dewey* and the
    terminals are tuples)."""
    layout = index.layout
    terminals = {}
    for keyword in query.keywords:
        points = terminal_points(keyword_occurrences(
            index, keyword, layout.pack(dewey)), layout)
        if points:
            terminals[keyword] = tuple(map(layout.unpack, points))
    score = 0.0
    for points in terminals.values():
        for terminal in points:
            score += received_potential(index, dewey, terminal,
                                        float(len(terminals)))
    return score, terminals


def direct_ranking(index, query, ranker):
    """What a per-node loop over the discovery stages returns: every
    response candidate ranked by one *ranker* call into a
    ``RankedNode(...)``, sorted by ``sort_key`` — the reference the one
    ranking loop is held to."""
    query = query.with_s(query.effective_s)
    sl = merged_list(index, query)
    lce = discover_lce(compute_lcp_list(sl, query.s), sl, index)
    fallback = lce.fallback_candidates()
    nodes = []
    for dewey in lce.response_deweys(fallback):
        breakdown = ranker(index, query, dewey)
        info = lce.lce.get(dewey)
        nodes.append(RankedNode(
            dewey=index.layout.unpack(dewey), score=breakdown.score,
            distinct_keywords=breakdown.distinct_keywords,
            matched_keywords=breakdown.matched_keywords,
            is_lce=info is not None,
            estimated_keywords=info.estimated_keywords
            if info is not None else fallback[dewey],
            breakdown=breakdown))
    return sorted(nodes, key=RankedNode.sort_key)


class TestRankNodeEqualsComposition:
    """Exact equality (``==`` on the float, same terminals in the same
    order) on every node of a corpus, behind each kind of index; and the
    ranking loop's records equal ``rank_node`` on every candidate."""

    CORPUS = [
        "<bib><paper><author>peter buneman</author>"
        "<title>keyword search</title><note>keyword</note></paper>"
        "<paper><author>wenfei fan</author><title>graph search</title>"
        "<cites><paper><title>keyword graph</title></paper>"
        "<paper><title>search</title></paper></cites></paper></bib>",
        "<bib><book><author>wenfei fan</author>"
        "<title>keyword mining</title><chapter><title>search</title>"
        "<title>keyword search</title><title>mining</title></chapter>"
        "</book></bib>",
        "<bib><paper><title>search engines</title></paper></bib>",
    ]
    QUERIES = [Query.of(["keyword"]), Query.of(["keyword", "search"]),
               Query.of(["search", "fan", "graph", "mining", "zzz"]),
               Query.of(["wenfei fan", "search"]), Query.of(["title"])]

    def check(self, index, deweys):
        for query in self.QUERIES:
            for dewey in deweys:
                breakdown = rank(index, query, dewey)
                score, terminals = composed_rank(index, query, dewey)
                assert breakdown.score == score
                assert breakdown.terminals == terminals
                assert list(breakdown.terminals) == list(terminals)
                assert breakdown.initial_potential == len(terminals)
        self.check_loop(index)

    def check_loop(self, index):
        """Every candidate of a response, as the ranking loop wrote it:
        the score ``==`` ``rank_node``'s, the same keywords, and a
        breakdown that is built only when read, with the same
        terminals."""
        ranked = 0
        for query in self.QUERIES:
            for s in (1, 2):
                response = search(index, query.with_s(s))
                for node in response:
                    assert "breakdown" not in vars(node)
                    expected = rank(index, response.query, node.dewey)
                    assert node.score == expected.score
                    assert (node.distinct_keywords
                            == expected.distinct_keywords)
                    assert (node.matched_keywords
                            == expected.matched_keywords)
                    assert node.breakdown.terminals == expected.terminals
                    assert node.breakdown == expected
                assert list(response) == direct_ranking(
                    index, query.with_s(s), rank_node)
                ranked += len(response)
        assert ranked

    @pytest.fixture(scope="class")
    def repository(self):
        return Repository.from_texts(self.CORPUS)

    def test_monolithic_index(self, repository):
        self.check(build_index(repository),
                   [node.dewey for node in repository.iter_nodes()])

    def test_shard_of_a_sharded_index(self, repository):
        sharded = build_sharded_index(repository, shards=2)
        for shard in sharded.shards:
            self.check(shard.index,
                       [node.dewey for node in repository.iter_nodes()
                        if node.dewey[0] in shard.doc_ids])

    def test_varint_dag_loaded_index(self, repository, tmp_path):
        path = save_index(build_index(repository), tmp_path / "dag.idx",
                          codec="varint-dag")
        self.check(load_index(path),
                   [node.dewey for node in repository.iter_nodes()])

    def test_store_composite_index(self, repository, tmp_path):
        """A flushed segment plus two memtable units: hash lookups go
        through the routed tables, postings through merged lists."""
        engine = GKSEngine.open(Texts(self.CORPUS[:1]), EngineConfig(
            store_path=tmp_path / "store", memtable_docs=8, cache_size=0))
        try:
            for text in self.CORPUS[1:]:
                engine.add_document(text)
            assert isinstance(engine.index, CompositeIndex)
            assert len(engine.index.units) == 3
            self.check(engine.index,
                       [node.dewey for node in repository.iter_nodes()])
        finally:
            engine.close()


    @pytest.mark.parametrize("ranker", [rank_by_keyword_count, rank_node])
    def test_custom_ranker_is_called_once_per_candidate(self, ranker):
        """A ranker given as ``EngineConfig.ranker`` is called once per
        candidate, and its breakdowns make the records a per-node loop
        makes (``rank_node`` wrapped is a custom ranker too)."""
        calls = []

        def counting(index, query, dewey):
            calls.append(dewey)
            return ranker(index, query, dewey)

        engine = GKSEngine.open(Texts(self.CORPUS), EngineConfig(
            ranker=counting, cache_size=0))
        index = engine.index
        for query in self.QUERIES:
            for s in (1, 2):
                calls.clear()
                response = engine.search(query, s=s)
                assert sorted(calls) == sorted(
                    index.layout.pack(node.dewey) for node in response)
                assert len(set(calls)) == len(calls)
                direct = direct_ranking(index, response.query, ranker)
                assert list(response) == direct
                assert ([node.breakdown for node in response]
                        == [node.breakdown for node in direct])


class TestRecordContract:
    """What ``RankedNode`` and ``RankBreakdown`` promise, whichever way
    they were built: the search path writes them without ``__init__``."""

    @pytest.fixture(scope="class")
    def node(self, figure1_index):
        return search(figure1_index, Query.of(["a", "b"], s=2)).nodes[0]

    def test_built_equals_constructed(self, node):
        breakdown = node.breakdown
        assert type(node) is RankedNode
        assert type(breakdown) is RankBreakdown
        assert breakdown == RankBreakdown(
            dewey=breakdown.dewey, score=breakdown.score,
            initial_potential=breakdown.initial_potential,
            terminals=breakdown.terminals)
        twin = RankedNode(
            dewey=node.dewey, score=node.score,
            distinct_keywords=node.distinct_keywords,
            matched_keywords=node.matched_keywords, is_lce=node.is_lce,
            estimated_keywords=node.estimated_keywords,
            breakdown=breakdown)
        assert twin == node and hash(twin) == hash(node)
        assert repr(twin) == repr(node)
        assert node.probability is None

    def test_fields_are_frozen(self, node):
        with pytest.raises(FrozenInstanceError):
            node.score = 0.0
        with pytest.raises(FrozenInstanceError):
            node.breakdown.score = 0.0

    def test_breakdown_is_not_compared_hashed_or_shown(self, node):
        bare = replace(node, breakdown=None)
        assert bare == node and hash(bare) == hash(node)
        assert "breakdown" not in repr(node)
        assert repr(bare) == repr(node)

    def test_replace_keeps_every_other_field(self, node):
        weighted = replace(node, probability=0.5)
        assert weighted.probability == 0.5
        assert weighted.breakdown is node.breakdown
        assert weighted != node
        assert replace(weighted, probability=None) == node

    def test_keyword_construction_defaults(self):
        node = RankedNode(dewey=(9, 9), score=1.0, distinct_keywords=1,
                          matched_keywords=("karen",), is_lce=False,
                          estimated_keywords=1, probability=0.5)
        assert node.breakdown is None and node.probability == 0.5
        assert node.sort_key() == (-1.0, -1, (9, 9))
