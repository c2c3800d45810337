"""Tests for automatic threshold suggestion and snippet highlighting."""

import pytest

from repro.core.engine import GKSEngine
from repro.core.highlight import highlight_snippet, highlight_text
from repro.core.query import Query
from repro.core.threshold import s_profile, suggest_s
from repro.datasets.registry import load_dataset
from repro.index.builder import build_index


@pytest.fixture(scope="module")
def dblp_engine():
    return GKSEngine(load_dataset("dblp"))


class TestSProfile:
    def test_counts_non_increasing(self, figure1_index):
        query = Query.of(["a", "b", "c", "d"])
        profile = s_profile(figure1_index, query)
        values = [profile.counts[s] for s in sorted(profile.counts)]
        assert values == sorted(values, reverse=True)

    def test_best_coverage(self, figure1_index):
        query = Query.of(["a", "b", "c", "d"])
        profile = s_profile(figure1_index, query)
        assert profile.best_coverage() == 3  # x2/x3 cover three keywords

    def test_empty_query_response(self, figure1_index):
        profile = s_profile(figure1_index, Query.of(["zzz"]))
        assert profile.best_coverage() == 0


class TestSuggestS:
    def test_trio_query_suggests_three(self, dblp_engine):
        # Example 2's coherent core: three authors co-occur
        query = dblp_engine.parse_query(
            '"Peter Buneman" "Wenfei Fan" "Scott Weinstein" '
            '"Prithviraj Banerjee"')
        assert suggest_s(dblp_engine.index, query) == 3

    def test_coherent_query_gets_and_semantics(self, dblp_engine):
        query = dblp_engine.parse_query(
            '"Dimitrios Georgakopoulos" "Marek Rusinkiewicz"')
        assert suggest_s(dblp_engine.index, query) == 2

    def test_scattershot_query_falls_back(self, figure1_index):
        query = Query.of(["a", "zzz", "qqq"])
        assert suggest_s(figure1_index, query) == 1

    def test_min_results_raises_bar(self, dblp_engine):
        query = dblp_engine.parse_query(
            '"Peter Buneman" "Wenfei Fan" "Scott Weinstein" '
            '"Prithviraj Banerjee"')
        # nine nodes cover the trio: requiring ten forces s down to 1
        assert suggest_s(dblp_engine.index, query, min_results=10) == 1

    def test_invalid_min_results(self, figure1_index):
        with pytest.raises(ValueError):
            suggest_s(figure1_index, Query.of(["a"]), min_results=0)

    def test_engine_facade(self, dblp_engine):
        assert dblp_engine.suggest_s('"Peter Buneman" "Wenfei Fan"') == 2

    @pytest.mark.parametrize("raw,expected", [
        ("king lear night", 2), ("king queen night storm", 3)])
    def test_engine_facade_on_two_shards(self, raw, expected):
        # three documents over two shards: the layout must not show
        for shards in (1, 2):
            engine = GKSEngine.open(load_dataset("plays"), shards=shards)
            assert engine.suggest_s(raw) == expected


class TestHighlightText:
    QUERY = Query.parse("karen publications")

    def test_exact_word_marked(self):
        assert highlight_text("Karen rocks", self.QUERY) == \
            "**Karen** rocks"

    def test_stemmed_form_marked(self):
        # 'publications' analyses to the query keyword 'public'
        assert highlight_text("Publications of 2002", self.QUERY) == \
            "**Publications** of 2002"

    def test_phrase_words_marked_individually(self):
        query = Query.parse('"Peter Buneman"')
        assert highlight_text("by Peter Buneman et al", query) == \
            "by **Peter** **Buneman** et al"

    def test_punctuation_preserved(self):
        assert highlight_text("karen, karen!", self.QUERY) == \
            "**karen**, **karen**!"

    def test_no_match_unchanged(self):
        assert highlight_text("nothing here", self.QUERY) == \
            "nothing here"

    def test_custom_marker(self):
        assert highlight_text("karen", self.QUERY, marker=">>") == \
            ">>karen>>"


class TestHighlightSnippet:
    def test_snippet_marks_text_not_tags(self, figure2a_engine):
        query = figure2a_engine.parse_query("karen course")
        response = figure2a_engine.search(query)
        text = figure2a_engine.highlighted_snippet(response[0], query)
        assert "**Karen**" in text
        assert "**Course**" not in text        # tags stay unmarked
        assert "<Course>" in text

    def test_xml_escaping_applies(self):
        engine = GKSEngine.open(
            ["<r><a>karen &amp; mike</a></r>"])
        query = engine.parse_query("karen")
        response = engine.search(query)
        text = engine.highlighted_snippet(response[0], query)
        assert "&amp;" in text
        assert "**karen**" in text

    def test_missing_node(self, figure2a_engine):
        query = figure2a_engine.parse_query("karen")
        assert "missing node" in figure2a_engine.highlighted_snippet(
            (9, 9), query)
