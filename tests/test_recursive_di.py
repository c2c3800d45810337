"""Focused tests for recursive DI (paper §2.3's r-round recursion)."""

import pytest

from repro.core.engine import GKSEngine
from repro.core.insights import discover_recursive
from repro.datasets.registry import load_dataset


@pytest.fixture(scope="module")
def dblp_engine():
    return GKSEngine(load_dataset("dblp"))


class TestRecursion:
    def test_round_zero_is_plain_di(self, dblp_engine):
        response = dblp_engine.search('"Prithviraj Banerjee"', s=1)
        plain = dblp_engine.insights(response)
        reports = discover_recursive(dblp_engine.repository,
                                     dblp_engine.index, response,
                                     rounds=1)
        assert [insight.render() for insight in reports[0]] == \
            [insight.render() for insight in plain]

    def test_each_round_produces_a_report(self, dblp_engine):
        response = dblp_engine.search('"E. F. Codd"', s=1)
        reports = discover_recursive(dblp_engine.repository,
                                     dblp_engine.index, response,
                                     rounds=2)
        assert 1 <= len(reports) <= 3
        for report in reports:
            assert hasattr(report, "weighted_keywords")

    def test_recursion_reaches_new_keywords(self, dblp_engine):
        """§2.3: 'The recursive DI may reveal deeper insights' — the
        second round's keyword set is not simply the first round's."""
        response = dblp_engine.search('"Prithviraj Banerjee"', s=1)
        reports = discover_recursive(dblp_engine.repository,
                                     dblp_engine.index, response,
                                     rounds=1, seed_keywords=4)
        if len(reports) < 2:
            pytest.skip("round 0 produced no seed keywords")
        first = set(reports[0].weighted_keywords)
        second = set(reports[1].weighted_keywords)
        assert second  # the fed-back query found LCE nodes
        assert second - first or first - second

    def test_recursion_stops_on_empty_seed(self, figure1_repo,
                                           figure1_index):
        from repro.core.query import Query
        from repro.core.search import search

        # figure1 has no entities → no DI → recursion stops after round 0
        response = search(figure1_index, Query.of(["a", "b"], s=2))
        reports = discover_recursive(figure1_repo, figure1_index,
                                     response, rounds=3)
        assert len(reports) == 1

    def test_engine_facade_rounds(self, dblp_engine):
        response = dblp_engine.search('"Jim Gray"', s=1)
        reports = dblp_engine.recursive_insights(response, rounds=2,
                                                 seed_keywords=3)
        assert len(reports) >= 1

    def test_engine_facade_on_two_shards(self):
        # three documents over two shards: the layout must not show
        engines = [GKSEngine.open(load_dataset("plays"), shards=shards)
                   for shards in (1, 2)]
        rendered = [
            [[insight.render() for insight in report]
             for report in engine.recursive_insights(
                 engine.search("king lear", s=1), rounds=2,
                 seed_keywords=3)]
            for engine in engines]
        assert len(rendered[0]) == 3 and rendered[0] == rendered[1]
