"""Tests for the GKSEngine facade and result rendering."""

import pytest

from repro.core.config import EngineConfig, Paths, Texts
from repro.core.engine import GKSEngine
from repro.errors import ConfigError
from repro.index.storage import load_index, save_index


class TestConstruction:
    def test_from_texts(self):
        engine = GKSEngine.open(Texts(["<r><a>karen</a></r>"]))
        assert len(engine.search("karen")) == 1

    def test_from_paths(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<r><a>karen</a></r>")
        engine = GKSEngine.open(Paths([path]))
        assert len(engine.search("karen")) == 1

    @pytest.mark.parametrize("field", ["store_path"])
    def test_persistence_fields_need_open(self, figure2a_repo, tmp_path,
                                          field):
        config = EngineConfig(**{field: tmp_path / "persisted"})
        with pytest.raises(ConfigError, match="GKSEngine.open"):
            GKSEngine(figure2a_repo, config=config)
        # what open() itself does: a prebuilt index is the caller's
        # statement that persistence is handled
        built = GKSEngine(figure2a_repo)
        assert GKSEngine(figure2a_repo, index=built.index,
                         config=config).config == config

    def test_index_path_is_gone(self, tmp_path):
        # a store persists an engine; a saved file opens through
        # load_index — open() has no third way that rebuilds silently
        with pytest.raises(ConfigError, match="index_path"):
            GKSEngine.open("<a>karen</a>", index_path=tmp_path / "idx")
        assert not (tmp_path / "idx").exists()

    def test_prebuilt_index_is_reused(self, figure2a_repo):
        first = GKSEngine(figure2a_repo)
        second = GKSEngine(figure2a_repo, index=first.index)
        assert second.index is first.index

    def test_persisted_index_round_trip(self, figure2a_repo, tmp_path):
        engine = GKSEngine(figure2a_repo)
        path = save_index(engine.index, tmp_path / "idx.gz")
        reloaded = GKSEngine(figure2a_repo, index=load_index(path))
        original = engine.search("karen mike", s=2).deweys
        assert reloaded.search("karen mike", s=2).deweys == original


class TestSearchFacade:
    def test_string_query_parsed_with_s(self, figure2a_engine):
        response = figure2a_engine.search("karen mike", s=2)
        assert response.query.s == 2
        assert response.query.keywords == ("karen", "mike")

    def test_query_object_accepted(self, figure2a_engine):
        from repro.core.query import Query

        response = figure2a_engine.search(Query.of(["karen"]), s=1)
        assert len(response) > 0

    def test_default_s_is_one(self, figure2a_engine):
        response = figure2a_engine.search("karen mike")
        assert response.query.s == 1

    def test_quoted_phrase_query(self, figure2a_engine):
        response = figure2a_engine.search('"data mining"')
        assert len(response) == 1
        assert response[0].dewey == (0, 1, 1, 0)


class TestAnalysisFacade:
    def test_insights_shortcut(self, figure2a_engine):
        response = figure2a_engine.search("karen mike john", s=2)
        report = figure2a_engine.insights(response)
        assert any("Data Mining" in insight.render()
                   for insight in report)

    def test_recursive_insights(self, figure2a_engine):
        response = figure2a_engine.search("karen", s=1)
        reports = figure2a_engine.recursive_insights(response, rounds=1)
        assert len(reports) >= 1

    def test_refine_computes_di_when_needed(self, figure2a_engine):
        response = figure2a_engine.search("karen mike zzz", s=1)
        suggestions = figure2a_engine.refine(response)
        assert suggestions  # at least the DI expansions


class TestRendering:
    def test_snippet_serializes_result(self, figure2a_engine):
        response = figure2a_engine.search('"data mining"')
        snippet = figure2a_engine.snippet(response[0])
        assert "<Course>" in snippet
        assert "Data Mining" in snippet

    def test_snippet_depth_limit(self, figure2a_engine):
        response = figure2a_engine.search('"data mining"')
        shallow = figure2a_engine.snippet(response[0], max_depth=1)
        assert "Karen" not in shallow    # students live at depth 2
        assert "Data Mining" in shallow

    def test_snippet_for_missing_node(self, figure2a_engine):
        assert "missing node" in figure2a_engine.snippet((9, 9, 9))

    def test_describe_one_liner(self, figure2a_engine):
        response = figure2a_engine.search("karen mike", s=2)
        line = figure2a_engine.describe(response[0])
        assert "score=" in line and "keywords[" in line

    def test_node_at_passthrough(self, figure2a_engine):
        node = figure2a_engine.node_at((0, 1, 1, 0))
        assert node is not None and node.tag == "Course"
