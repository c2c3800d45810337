"""Tests for exploration sessions and response grouping."""

import pytest

from repro.core.engine import GKSEngine
from repro.core.grouping import dominant_group, group_by_tag
from repro.core.session import ExplorationSession
from repro.datasets.registry import load_dataset
from repro.errors import QueryError
from repro.eval.runner import build_hybrid_repository
from repro.eval.workload import HYBRID_QUERY


@pytest.fixture(scope="module")
def hybrid_engine():
    return GKSEngine(build_hybrid_repository())


@pytest.fixture(scope="module")
def dblp_engine():
    return GKSEngine(load_dataset("dblp"))


class TestGrouping:
    def test_hybrid_response_splits_into_two_groups(self, hybrid_engine):
        response = hybrid_engine.search(HYBRID_QUERY, s=2)
        groups = group_by_tag(hybrid_engine.repository, response)
        labels = {group.label: len(group) for group in groups}
        assert labels == {"article": 5, "inproceedings": 3}

    def test_groups_ordered_by_best_member(self, hybrid_engine):
        response = hybrid_engine.search(HYBRID_QUERY, s=2)
        groups = group_by_tag(hybrid_engine.repository, response)
        assert groups[0].label == "article"   # §7.6: SIGMOD ranked first
        scores = [group.best_score for group in groups]
        assert scores == sorted(scores, reverse=True)

    def test_rank_order_preserved_inside_groups(self, hybrid_engine):
        response = hybrid_engine.search(HYBRID_QUERY, s=2)
        for group in group_by_tag(hybrid_engine.repository, response):
            keys = [node.sort_key() for node in group]
            assert keys == sorted(keys)

    def test_full_path_labels(self, hybrid_engine):
        response = hybrid_engine.search(HYBRID_QUERY, s=2)
        groups = group_by_tag(hybrid_engine.repository, response,
                              full_path=True)
        assert any(group.label.startswith("collection/")
                   for group in groups)

    def test_dominant_group(self, dblp_engine):
        response = dblp_engine.search(
            '"Peter Buneman" "Wenfei Fan" "Scott Weinstein"', s=1)
        group = dominant_group(dblp_engine.repository, response)
        assert group is not None
        assert group.label in ("inproceedings", "article")

    def test_empty_response_has_no_groups(self, dblp_engine):
        response = dblp_engine.search("zzzzz")
        assert group_by_tag(dblp_engine.repository, response) == []
        assert dominant_group(dblp_engine.repository, response) is None


class TestSession:
    def test_run_accumulates_steps(self, dblp_engine):
        session = ExplorationSession(dblp_engine)
        session.run('"Dimitrios Georgakopoulos" "Joe D. Morrison"')
        assert len(session) == 1
        assert session.current.result_count > 0
        assert session.current.insights is not None

    def test_refine_applies_suggestion(self, dblp_engine):
        session = ExplorationSession(dblp_engine)
        first = session.run(
            '"Dimitrios Georgakopoulos" "Joe D. Morrison"')
        assert first.refinements
        second = session.refine(0)
        assert len(session) == 2
        assert "refined" in second.note

    def test_qd1_session_reaches_rusinkiewicz(self, dblp_engine):
        """The §7.4 walk as a session: QD1 → expansion → 10 articles."""
        session = ExplorationSession(dblp_engine)
        step = session.run(
            '"Dimitrios Georgakopoulos" "Joe D. Morrison"')
        expansion = next(
            (number for number, refinement
             in enumerate(step.refinements)
             if "rusinkiewicz" in " ".join(refinement.keywords)), None)
        assert expansion is not None
        refined = session.refine(expansion)
        joint = [node for node in refined.response
                 if "georgakopoulo" in " ".join(node.matched_keywords)
                 and "rusinkiewicz" in " ".join(node.matched_keywords)]
        assert len(joint) >= 10

    def test_drill_down_uses_insight_keywords(self, dblp_engine):
        session = ExplorationSession(dblp_engine)
        session.run('"Prithviraj Banerjee"')
        step = session.drill_down()
        assert "drill-down" in step.note
        assert step.result_count > 0

    def test_back_rewinds(self, dblp_engine):
        session = ExplorationSession(dblp_engine)
        session.run("codd")
        session.run("gray")
        current = session.back()
        assert len(session) == 1
        assert current.query.raw == "codd"

    def test_back_at_start_fails(self, dblp_engine):
        session = ExplorationSession(dblp_engine)
        session.run("codd")
        with pytest.raises(QueryError):
            session.back()

    def test_current_before_run_fails(self, dblp_engine):
        with pytest.raises(QueryError):
            ExplorationSession(dblp_engine).current

    def test_refine_out_of_range(self, dblp_engine):
        session = ExplorationSession(dblp_engine)
        session.run("codd")
        with pytest.raises(QueryError):
            session.refine(99)

    def test_transcript_mentions_each_step(self, dblp_engine):
        session = ExplorationSession(dblp_engine)
        session.run("codd", note="start")
        session.drill_down()
        text = session.transcript()
        assert "step 1" in text and "step 2" in text
        assert "[start]" in text


class TestProfileBreakdown:
    def test_stage_times_sum_to_total(self, dblp_engine):
        stats = dblp_engine.search('"E. F. Codd"').stats
        assert stats.stage_sum() == pytest.approx(stats.total_seconds,
                                                  rel=0.05)

    def test_all_stages_non_negative(self, dblp_engine):
        stats = dblp_engine.search("codd").stats
        for value in stats.stage_breakdown().values():
            assert value >= 0
