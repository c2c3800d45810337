"""Tests for the per-stage timing breakdown a search reports."""

import pytest

from repro.core.engine import GKSEngine
from repro.datasets.registry import load_dataset


@pytest.fixture(scope="module")
def dblp_engine():
    return GKSEngine(load_dataset("dblp"))


class TestProfileBreakdown:
    def test_stage_times_sum_to_total(self, dblp_engine):
        stats = dblp_engine.search('"E. F. Codd"').stats
        assert stats.stage_sum() == pytest.approx(stats.total_seconds,
                                                  rel=0.05)

    def test_all_stages_non_negative(self, dblp_engine):
        stats = dblp_engine.search("codd").stats
        for value in stats.stage_breakdown().values():
            assert value >= 0
