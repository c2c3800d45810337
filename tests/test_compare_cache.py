"""Tests for ranking comparison utilities and the engine response
cache."""

import pytest

from repro.core.budget import SearchBudget
from repro.core.config import EngineConfig
from repro.core.engine import GKSEngine
from repro.core.ranking import rank_by_keyword_count
from repro.datasets.registry import load_dataset
from repro.eval.compare import (compare_responses, jaccard, kendall_tau,
                                overlap_at)
from repro.xmltree.repository import Repository


class TestJaccard:
    def test_identical(self):
        assert jaccard([1, 2], [2, 1]) == 1.0

    def test_disjoint(self):
        assert jaccard([1], [2]) == 0.0

    def test_partial(self):
        assert jaccard([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5)

    def test_both_empty(self):
        assert jaccard([], []) == 1.0


class TestKendallTau:
    def test_identical_order(self):
        assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0

    def test_reversed_order(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_single_swap(self):
        # 6 pairs, one discordant → (5-1)/6
        assert kendall_tau([1, 2, 3, 4], [2, 1, 3, 4]) == \
            pytest.approx(4 / 6)

    def test_only_common_items_count(self):
        assert kendall_tau([1, 9, 2], [2, 7, 1]) == -1.0

    def test_too_few_common(self):
        assert kendall_tau([1], [1]) == 1.0
        assert kendall_tau([1, 2], [3, 4]) == 1.0


class TestOverlapAt:
    def test_full_and_empty(self):
        assert overlap_at([1, 2, 3], [1, 2, 9], 2) == 1.0
        assert overlap_at([1, 2], [3, 4], 2) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            overlap_at([1], [1], 0)


class TestCompareResponses:
    def test_rankers_compared(self):
        engine = GKSEngine(load_dataset("figure2a"))
        flow = engine.search("karen mike john student", s=2)
        count = engine.search("karen mike john student", s=2,
                              ranker=rank_by_keyword_count)
        comparison = compare_responses(flow, count)
        assert comparison.jaccard == 1.0       # same node set
        assert -1.0 <= comparison.kendall_tau <= 1.0
        assert comparison.left_size == comparison.right_size


class TestResponseCache:
    def test_repeated_search_returns_cached_object(self):
        engine = GKSEngine(load_dataset("figure2a"))
        first = engine.search("karen mike", s=2)
        second = engine.search("karen mike", s=2)
        # the ranked nodes are shared (nothing recomputed); only the
        # stats envelope differs, flagging the hit
        assert second.nodes is first.nodes
        assert not first.stats.cache_hit
        assert second.stats.cache_hit

    def test_top_k_is_served_the_head_of_a_cached_answer(self):
        engine = GKSEngine(load_dataset("figure2a"))
        full = engine.search("karen mike", s=1)
        top = engine.search_top_k("karen mike", 3, s=1)
        assert top.stats.cache_hit
        assert top.nodes == full.nodes[:3]
        assert top.stats.nodes_emitted == 3
        # a budgeted top-k still bypasses the cache in both directions
        budgeted = engine.search_top_k("karen mike", 3, s=1,
                                       budget=SearchBudget(max_nodes=50))
        assert not budgeted.stats.cache_hit
        assert engine.cache_info()["hits"] == 1

    def test_top_k_fills_the_cache(self):
        engine = GKSEngine(load_dataset("figure2a"))
        top = engine.search_top_k("karen mike", 2, s=1)
        full = engine.search("karen mike", s=1)
        assert full.stats.cache_hit and not top.stats.cache_hit
        assert full.nodes[:2] == top.nodes

    def test_different_s_not_conflated(self):
        engine = GKSEngine(load_dataset("figure2a"))
        assert engine.search("karen mike", s=1) is not \
            engine.search("karen mike", s=2)

    def test_different_ranker_not_conflated(self):
        engine = GKSEngine(load_dataset("figure2a"))
        flow = engine.search("karen", s=1)
        count = engine.search("karen", s=1,
                              ranker=rank_by_keyword_count)
        assert flow is not count

    def test_cache_evicts_oldest(self):
        engine = GKSEngine(load_dataset("figure2a"),
                           config=EngineConfig(cache_size=2))
        first = engine.search("karen", s=1)
        engine.search("mike", s=1)
        engine.search("john", s=1)   # evicts "karen"
        assert engine.search("karen", s=1) is not first

    def test_add_document_invalidates(self):
        engine = GKSEngine(Repository.from_texts(["<r><a>karen</a></r>"]))
        stale = engine.search("karen")
        engine.add_document("<r><b>karen</b></r>")
        fresh = engine.search("karen")
        assert fresh is not stale
        assert len(fresh) == 2

    def test_cache_can_be_disabled(self):
        engine = GKSEngine(load_dataset("figure2a"),
                           config=EngineConfig(cache_size=0))
        assert engine.search("karen") is not engine.search("karen")
